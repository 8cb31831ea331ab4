"""The compact graph backend: snapshots, indexes and backend equivalence.

Covers the whole refactor stack:

* ``DataGraph`` version counter, incremental label index and the
  ``freeze()`` snapshot cache;
* ``CompactGraph``'s DataGraph-compatible read API;
* the equivalence suite -- ``match`` / ``dual_match`` must produce
  identical results on the dict backend and on the frozen
  ``CompactGraph`` backend over randomized graphs and patterns
  (``match_join`` on every snapshot form is ``test_oracle_machine.py``'s);
* snapshot-bound extensions (id payloads, token matching, the MatchJoin
  fast path engaging and falling back correctly);
* the ``QueryEngine`` freezing ``G`` once and invalidating the snapshot
  through maintenance events.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    attached,
    build_bounded,
    build_graph,
    build_pattern,
    key_only,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
)
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import CompactGraph, DataGraph, P
from repro.graph.conditions import Atom, AttributeCondition, Label, TrueCondition
from repro.graph.snapshot import SnapshotStore
from repro.simulation import bounded_match, dual_match, match, strong_match
from repro.views.maintenance import Delta, IncrementalViewSet
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition


# ----------------------------------------------------------------------
# DataGraph: version counter, label index, freeze cache
# ----------------------------------------------------------------------
class TestVersionAndIndex:
    def test_version_bumps_on_mutations(self):
        g = DataGraph()
        v0 = g.version
        g.add_node(1, labels="A")
        assert g.version > v0
        v1 = g.version
        g.add_node(1)  # no-op: node exists, nothing changes
        assert g.version == v1
        g.add_edge(1, 2)
        v2 = g.version
        assert v2 > v1
        g.add_edge(1, 2)  # duplicate edge: no change
        assert g.version == v2
        g.remove_edge(1, 2)
        assert g.version > v2

    def test_label_index_tracks_mutations(self):
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2)])
        assert set(g.nodes_with_label("B")) == {2, 3}
        g.add_node(4, labels="B")
        assert set(g.nodes_with_label("B")) == {2, 3, 4}
        g.remove_node(2)
        assert set(g.nodes_with_label("B")) == {3, 4}
        assert set(g.nodes_with_label("missing")) == set()
        assert g.label_index_stats() == {"A": 1, "B": 2}

    def test_label_index_matches_linear_scan_randomized(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_labeled_graph(rng, rng.randint(1, 40), rng.randint(0, 80))
            for _ in range(rng.randint(0, 10)):
                node = rng.randrange(60)
                if node in g and rng.random() < 0.3:
                    g.remove_node(node)
                else:
                    g.add_node(node, labels=rng.choice("ABC"))
            for label in "ABC":
                scanned = {v for v in g.nodes() if label in g.labels(v)}
                assert set(g.nodes_with_label(label)) == scanned

    def test_copy_preserves_index_and_independence(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        clone = g.copy()
        clone.add_node(3, labels="B")
        assert set(clone.nodes_with_label("B")) == {2, 3}
        assert set(g.nodes_with_label("B")) == {2}

    def test_freeze_is_cached_until_mutation(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        first = g.freeze()
        assert g.freeze() is first
        g.add_edge(2, 1)
        second = g.freeze()
        assert second is not first
        assert second.snapshot_version == g.version
        assert second.snapshot_token != first.snapshot_token

    def test_descendants_within_shortest_distances(self):
        # Diamond plus a long way round: BFS must report shortest hops
        # and must not blow up on parallel in-edges.
        g = build_graph(
            {i: "A" for i in range(6)},
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (0, 5)],
        )
        assert g.descendants_within(0, 3) == {1: 1, 2: 1, 5: 1, 3: 2, 4: 3}
        assert g.freeze().descendants_within(0, 3) == g.descendants_within(0, 3)


# ----------------------------------------------------------------------
# CompactGraph read API mirrors DataGraph
# ----------------------------------------------------------------------
class TestCompactGraphApi:
    def test_read_api_equivalence_randomized(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_labeled_graph(rng, rng.randint(1, 30), rng.randint(0, 60))
            f = g.freeze()
            assert isinstance(f, CompactGraph)
            assert f.freeze() is f
            assert len(f) == len(g)
            assert f.num_edges == g.num_edges
            assert f.size == g.size
            assert set(f.nodes()) == set(g.nodes())
            assert set(f.edges()) == set(g.edges())
            for v in g.nodes():
                assert v in f
                assert f.successors(v) == g.successors(v)
                assert f.predecessors(v) == g.predecessors(v)
                assert f.out_degree(v) == g.out_degree(v)
                assert f.in_degree(v) == g.in_degree(v)
                assert f.labels(v) == g.labels(v)
                assert f.attrs(v) == g.attrs(v)
                assert f.node_of(f.id_of(v)) == v
                bound = rng.randint(1, 4)
                assert f.descendants_within(v, bound) == g.descendants_within(
                    v, bound
                )
            for label in "ABC":
                assert set(f.nodes_with_label(label)) == set(
                    g.nodes_with_label(label)
                )

    def test_has_edge_and_missing_nodes(self):
        f = build_graph({1: "A", 2: "B"}, [(1, 2)]).freeze()
        assert f.has_edge(1, 2)
        assert not f.has_edge(2, 1)
        assert not f.has_edge(99, 1)
        assert 99 not in f

    def test_snapshot_is_isolated_from_later_mutations(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        f = g.freeze()
        g.add_node(3, labels="B")
        g.add_edge(2, 3)
        assert 3 not in f
        assert f.num_edges == 1
        assert set(f.nodes_with_label("B")) == {2}

    def test_attrs_are_copied_at_freeze_time(self):
        g = DataGraph()
        g.add_node(1, labels="A", attrs={"x": 1})
        f = g.freeze()
        g.add_node(1, attrs={"x": 2})
        assert f.attrs(1) == {"x": 1}


# ----------------------------------------------------------------------
# Backend equivalence: match / dual / strong on random instances
# ----------------------------------------------------------------------
class TestMatchEquivalence:
    def test_dual_match_randomized(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_labeled_graph(rng, rng.randint(2, 35), rng.randint(1, 90))
            q = random_pattern(rng, rng.randint(2, 6), rng.randint(1, 10))
            assert dual_match(q, g) == dual_match(q, g.freeze())

    def test_self_loop_pattern_regression(self):
        # Regression: a self-loop pattern edge can re-queue ids for the
        # node whose batch is being propagated; a counter materialized
        # mid-pop must still count those queued witnesses, or they get
        # decremented twice and matches vanish.
        g = build_graph(
            {"a1": "A", "a2": "A", "a3": "A", "x": "A", "v": "B"},
            [("a1", "a2"), ("a2", "a3"), ("x", "x"),
             ("v", "a2"), ("v", "a3"), ("v", "x")],
        )
        q = build_pattern({"a": "A", "b": "B"}, [("a", "a"), ("b", "a")])
        result = match(q, g)
        assert result.node_matches == {"a": {"x"}, "b": {"v"}}
        assert match(q, g.freeze()) == result

    def test_dual_match_self_loops_randomized(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_labeled_graph(rng, rng.randint(2, 25), rng.randint(1, 60))
            q = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 8))
            for node in rng.sample(list(q.nodes()), rng.randint(1, 2)):
                q.add_edge(node, node)
            for node in rng.sample(list(g.nodes()), min(3, len(g))):
                g.add_edge(node, node)
            assert dual_match(q, g) == dual_match(q, g.freeze())

    def test_strong_match_runs_on_snapshots(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_labeled_graph(rng, rng.randint(2, 20), rng.randint(1, 40))
            q = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
            result_dict, balls_dict = strong_match(q, g)
            result_frozen, balls_frozen = strong_match(q, g.freeze())
            assert result_dict == result_frozen
            assert len(balls_dict) == len(balls_frozen)

    def test_attribute_conditions_randomized(self):
        rng = random.Random(37)
        for _ in range(20):
            g = DataGraph()
            n = rng.randint(3, 25)
            for i in range(n):
                g.add_node(
                    i,
                    labels=rng.choice("AB"),
                    attrs={"score": rng.randint(0, 10)},
                )
            for _ in range(rng.randint(2, 50)):
                g.add_edge(rng.randrange(n), rng.randrange(n))
            q = build_pattern({}, [])
            q.add_node("hi", (P("score") >= 5).with_label("A"))
            q.add_node("any", rng.choice("AB"))
            q.add_edge("hi", "any")
            assert match(q, g) == match(q, g.freeze())

    def test_wildcard_condition_seeding(self):
        from repro.graph.conditions import TrueCondition

        g = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
        q = build_pattern({}, [])
        q.add_node("a", "A")
        q.add_node("w", TrueCondition())
        q.add_edge("a", "w")
        assert match(q, g) == match(q, g.freeze())
        # "w" has no out-edge constraints, so every node simulates it.
        assert match(q, g).matches_of("w") == {1, 2, 3}
        assert match(q, g).edge_matches_of(("a", "w")) == {(1, 2)}


# ----------------------------------------------------------------------
# Backend equivalence: MatchJoin over snapshot-bound extensions
# ----------------------------------------------------------------------
def _materialized_pair(graph, definitions):
    """The same view suite materialized on the snapshot, and its
    key-only copy (node-key sets, no id rows)."""
    frozen = graph.freeze()
    compact_views = ViewSet(definitions)
    compact_views.materialize(frozen)
    return key_only(compact_views), compact_views, frozen


class TestMatchJoinEquivalence:
    def test_fast_path_engages_on_shared_snapshot(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=3)
        definitions = list(generate_views(labels, 8, seed=3))
        key_views, compact_views, _ = _materialized_pair(graph, definitions)
        query = query_from_views(key_views, 4, 6, seed=7)
        containment = contains(query, key_views)
        with matchjoin_metrics() as count:
            match_join(query, containment, compact_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
            # Key-only extensions carry no payload: node-key rows.
            match_join(query, containment, key_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 1)

    def test_fast_path_declines_on_mixed_snapshots(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=4)
        definitions = list(generate_views(labels, 8, seed=4))
        views = ViewSet(definitions)
        views.materialize(graph.freeze())
        query = query_from_views(views, 4, 6, seed=5)
        containment = contains(query, views)
        names = {
            name
            for refs in containment.mapping.values()
            for name, _ in refs
        }
        assert names
        # Re-materialize one needed view against a *different* snapshot:
        # tokens now disagree, so ids must not be mixed.
        graph.add_node("poke", labels=labels[0])
        views.materialize(graph.freeze(), names=[sorted(names)[0]])
        extensions = views.extensions()
        tokens = {
            extensions[name].compact.token
            for name in names
            if extensions[name].compact is not None
        }
        # Ids of different snapshots must not mix; either way the answer
        # stays correct.
        with matchjoin_metrics() as count:
            result = match_join(query, containment, views)
            assert count("total", "keys" if len(tokens) > 1 else "ids") == 1
        assert result.edge_matches == match(query, graph).edge_matches

    def test_naive_engine_ignores_fast_path(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(120, 320, labels=labels, seed=6)
        definitions = list(generate_views(labels, 8, seed=6))
        key_views, compact_views, _ = _materialized_pair(graph, definitions)
        query = query_from_views(key_views, 4, 5, seed=9)
        containment = contains(query, key_views)
        naive = match_join(query, containment, compact_views, optimized=False)
        assert naive == match_join(query, containment, key_views)



# ----------------------------------------------------------------------
# ViewSet snapshot bookkeeping
# ----------------------------------------------------------------------
class TestSnapshotBookkeeping:
    def test_viewset_records_snapshot_token(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        view = ViewDefinition("v", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))
        views = ViewSet([view])
        views.materialize(g)  # on g's own (cached) snapshot
        frozen = g.freeze()
        assert views.snapshot_token == frozen.snapshot_token
        assert views.extension("v").snapshot_version == frozen.snapshot_version
        assert views.subset(["v"]).snapshot_token == frozen.snapshot_token
        keys = key_only(views)
        assert keys.snapshot_token is None
        assert keys.extension("v").snapshot_version is None


# ----------------------------------------------------------------------
# Engine: freeze once, reuse, invalidate through maintenance
# ----------------------------------------------------------------------
class TestEngineSnapshot:
    @pytest.fixture
    def workload(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=8)
        views = ViewSet(generate_views(labels, 8, seed=8))
        queries = [query_from_views(views, 4, 6, seed=s) for s in range(4)]
        return graph, views, queries

    def test_snapshot_frozen_once_and_reused(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph)
        first = engine.snapshot()
        results = engine.answer_batch(queries)
        assert engine.snapshot() is first
        # Extensions materialized on demand are bound to that snapshot.
        assert views.snapshot_token == first.snapshot_token
        for result, query in zip(results, queries):
            assert result.edge_matches == match(query, graph).edge_matches

    def test_snapshot_follows_graph_mutations(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph)
        first = engine.snapshot()
        graph.add_node("fresh", labels="l0")
        second = engine.snapshot()
        assert second is not first
        assert second.snapshot_version == graph.version

    def test_maintenance_event_refreshes_snapshot(self, workload):
        graph, views, queries = workload
        definitions = list(views)[:2]
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.attach_maintenance(tracker)
        # One graph: the engine serves the tracker's snapshot, so it
        # follows the same update stream the views do.
        first = engine.snapshot()
        assert engine.graph is first is tracker.graph is graph.freeze()
        nodes = list(tracker.graph.nodes())
        source = next(
            node for node in nodes
            if not tracker.graph.has_edge(node, nodes[0])
        )
        engine.apply_delta(Delta().insert(source, nodes[0]))
        second = engine.snapshot()
        # The update is visible, but absorbed as a patch of the previous
        # snapshot -- not a drop-and-rebuild -- and the dict graph is
        # left as it was.
        assert second is not first
        assert engine.graph is second is tracker.graph
        assert second.extends_token == first.snapshot_token
        assert second.flat_store is first.flat_store
        assert second.has_edge(source, nodes[0])
        assert not graph.has_edge(source, nodes[0])

    def test_views_only_engine_has_no_snapshot(self, workload):
        _, views, _ = workload
        engine = QueryEngine(views)
        assert engine.snapshot() is None




# ----------------------------------------------------------------------
# One snapshot form: fresh, patched, saved + loaded
# ----------------------------------------------------------------------
#: Node keys of three kinds (ints, strs, tuples), drawn without repeats.
KEYS = [*range(8), *(f"s{i}" for i in range(8)), *(("t", i) for i in range(8))]
label_sets = st.frozensets(st.sampled_from("ABC"), max_size=2)
attr_dicts = st.dictionaries(
    st.sampled_from("xy"), st.one_of(st.integers(-2, 2), st.sampled_from(["a", "b"]))
)
CONDITIONS = [
    TrueCondition(),
    Label("A"),
    Label("C"),
    P("x") >= 0,
    AttributeCondition((Atom("y", "==", "a"),), label="B"),
]


def _saved_and_loaded(snapshot, directory):
    """``snapshot`` saved under a fresh subdirectory of ``directory``
    and mapped back."""
    path = os.path.join(directory, str(len(os.listdir(directory))))
    SnapshotStore.save(path, snapshot)
    return SnapshotStore.load(path).graph


def assert_reads_like(snapshot, graph):
    """Every read API of ``snapshot`` against the dict graph it froze;
    ``edge_columns()`` first, before any row is decoded."""
    nodes = list(graph.nodes())
    ids = {v: i for i, v in enumerate(nodes)}
    sources, targets = snapshot.edge_columns()
    assert list(zip(sources, targets)) == [
        (i, j) for i in range(len(nodes)) for j in snapshot.out_ids(i)
    ]
    assert set(zip(sources, targets)) == {(ids[v], ids[w]) for v, w in graph.edges()}
    assert list(snapshot.nodes()) == nodes and snapshot.num_nodes == len(nodes)
    assert sorted(snapshot.edges(), key=repr) == sorted(graph.edges(), key=repr)
    assert snapshot.num_edges == graph.num_edges
    for v in nodes:
        assert snapshot.id_of(v) == ids[v] and v in snapshot
        assert snapshot.successors(v) == graph.successors(v)
        assert snapshot.predecessors(v) == graph.predecessors(v)
        assert snapshot.labels(v) == graph.labels(v)
        assert snapshot.attrs(v) == graph.attrs(v)
        for bound in (1, 2):
            assert snapshot.descendants_within_ids(ids[v], bound) == {
                ids[w]: d for w, d in graph.descendants_within(v, bound).items()
            }
            assert snapshot.reverse_within_ids({ids[v]}, bound) == {
                ids[u] for u in nodes if v in graph.descendants_within(u, bound)
            }
    for label in "ABCD":
        assert snapshot.label_ids(label) == tuple(
            sorted(ids[v] for v in graph.nodes_with_label(label))
        )
    assert snapshot.label_index_stats() == graph.label_index_stats()
    for condition in CONDITIONS:
        assert snapshot.candidate_ids(condition) == {
            ids[v] for v in nodes
            if condition.matches(graph.labels(v), graph.attrs(v))
        }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snapshot_forms_agree_with_the_dict_graph(data):
    with tempfile.TemporaryDirectory() as directory:
        check_snapshot_forms(data, directory)


def check_snapshot_forms(data, directory):
    # A chain of random batches (edge toggles, edges to fresh keys);
    # after each: the batch applied to the in-memory snapshot and to the
    # previous one mapped back from disk, a fresh freeze of the dict
    # graph the same ops moved, and a save + load of both patched
    # snapshots -- one form, every read equal to the dict graph's.
    keys = iter(data.draw(st.permutations(KEYS)))
    graph = DataGraph()

    def add_nodes(count):
        for _ in range(count):
            graph.add_node(next(keys), labels=data.draw(label_sets), attrs=data.draw(attr_dicts))

    def toggle_edges(count):
        nodes, ops = list(graph.nodes()) + [next(keys)], []
        for _ in range(count):
            v, w = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
            ops.append(("delete" if graph.has_edge(v, w) else "insert", v, w))
            (graph.remove_edge if graph.has_edge(v, w) else graph.add_edge)(v, w)
        return ops

    add_nodes(data.draw(st.integers(1, 8)))
    toggle_edges(data.draw(st.integers(0, 20)))
    frozen = graph.freeze()
    loaded = _saved_and_loaded(frozen, directory)
    for form in (frozen, loaded):
        assert_reads_like(form, graph)
    for _ in range(data.draw(st.integers(1, 3))):
        ops = toggle_edges(data.draw(st.integers(0, 6)))
        from_disk = loaded.applied(ops)
        assert from_disk.extends_token == loaded.snapshot_token
        previous, frozen = frozen, frozen.applied(ops)
        assert frozen.extends_token == previous.snapshot_token
        assert frozen.snapshot_version == from_disk.snapshot_version == graph.version
        loaded = _saved_and_loaded(frozen, directory)
        for form in (
            frozen,
            CompactGraph(graph, graph.version),
            from_disk,
            loaded,
            _saved_and_loaded(from_disk, directory),
        ):
            assert_reads_like(form, graph)


def test_a_loaded_snapshot_refreshes_after_a_node_is_appended():
    # Regression: the loaded snapshot's key -> id map was a lazy dict
    # that copied as empty, so this refresh raised KeyError: 5.
    graph = DataGraph()
    for v in range(6):
        graph.add_node(v, labels="A")
    for v in range(5):
        graph.add_edge(v, v + 1)
    with tempfile.TemporaryDirectory() as directory:
        loaded = _saved_and_loaded(graph.freeze(), directory)
        check_refresh_of_loaded(loaded, graph)


def check_refresh_of_loaded(loaded, graph):
    graph.add_edge(5, 6)
    refreshed = loaded.applied([("insert", 5, 6)])
    assert refreshed.extends_token == loaded.snapshot_token
    assert_reads_like(refreshed, graph)
    assert_reads_like(attached(refreshed), graph)


def test_refresh_reencodes_once_the_patch_outgrows_the_base():
    # A chain of batches rides the base tables as a patch overlay, and
    # shares every row decoded so far but the touched ones, until the
    # patch outgrows max(64, a quarter of the base): then the snapshot
    # is encoded afresh -- ids still stable, the chain still recorded.
    rng = random.Random(4)
    graph = random_labeled_graph(rng, 200, 400)
    first = graph.freeze()
    untouched = next(i for i in range(40, 200) if first.out_ids(i))
    snapshot = first
    for step in range(40):
        v, w = step, (step * 7 + 3) % 200
        op = "delete" if graph.has_edge(v, w) else "insert"
        (graph.remove_edge if graph.has_edge(v, w) else graph.add_edge)(v, w)
        previous, snapshot = snapshot, snapshot.applied([(op, v, w)])
        assert snapshot.extends_token == previous.snapshot_token
        if snapshot.flat_store is not first.flat_store:
            break
        assert snapshot.out_ids(untouched) is first.out_ids(untouched)
    assert snapshot.flat_store is not first.flat_store
    assert snapshot._patch is None and step > 10
    assert_reads_like(snapshot, graph)


def test_dropping_decoded_rows_keeps_the_patch():
    # A patched snapshot's touched rows live only in its row cache:
    # dropping the decoded rows must keep them, or they would decode
    # again from the stale base tables.
    rng = random.Random(6)
    graph = random_labeled_graph(rng, 60, 150)
    first, ops = graph.freeze(), []
    for step in range(12):
        v, w = step, (step * 5 + 2) % 60
        ops.append(("delete" if graph.has_edge(v, w) else "insert", v, w))
        (graph.remove_edge if graph.has_edge(v, w) else graph.add_edge)(v, w)
    graph.add_edge(59, "fresh")
    snapshot = first.applied(ops + [("insert", 59, "fresh")])
    assert snapshot.extends_token == first.snapshot_token
    for i in range(snapshot.num_nodes):
        snapshot.out_ids(i), snapshot.in_ids(i)
    snapshot.drop_decoded_rows()
    assert dict.__len__(snapshot.succ_rows) == len(snapshot._patch["succ"])
    assert dict.__len__(snapshot.pred_rows) == len(snapshot._patch["pred"])
    assert_reads_like(snapshot, graph)
