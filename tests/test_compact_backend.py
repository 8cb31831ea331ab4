"""The compact graph backend: snapshots, indexes and backend equivalence.

Covers the whole refactor stack:

* ``DataGraph`` version counter, incremental label index and the
  ``freeze()`` snapshot cache;
* ``CompactGraph``'s DataGraph-compatible read API;
* the property-based equivalence suite -- ``match`` / ``dual_match`` /
  ``match_join`` must produce identical results on the dict backend and
  on the frozen ``CompactGraph`` backend over randomized graphs,
  patterns and view suites;
* snapshot-bound extensions (id payloads, token matching, the MatchJoin
  fast path engaging and falling back correctly);
* the ``QueryEngine`` freezing ``G`` once and invalidating the snapshot
  through maintenance events.
"""

import random

import pytest

from helpers import (
    build_bounded,
    build_graph,
    build_pattern,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
)
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import CompactGraph, DataGraph, P
from repro.graph.flatbuf import SharedCompactGraph
from repro.simulation import bounded_match, dual_match, match, strong_match
from repro.views.maintenance import IncrementalViewSet
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
    def test_match_and_dual_match_randomized(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_labeled_graph(rng, rng.randint(2, 35), rng.randint(1, 90))
            q = random_pattern(rng, rng.randint(2, 6), rng.randint(1, 10))
            f = g.freeze()
            assert match(q, g) == match(q, f)
            assert dual_match(q, g) == dual_match(q, f)

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

    def test_self_loops_randomized(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_labeled_graph(rng, rng.randint(2, 25), rng.randint(1, 60))
            q = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 8))
            for node in rng.sample(list(q.nodes()), rng.randint(1, 2)):
                q.add_edge(node, node)
            for node in rng.sample(list(g.nodes()), min(3, len(g))):
                g.add_edge(node, node)
            f = g.freeze()
            assert match(q, g) == match(q, f)
            assert dual_match(q, g) == dual_match(q, f)

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
    """The same view suite materialized on both backends."""
    dict_views = ViewSet(definitions)
    dict_views.materialize(graph)
    frozen = graph.freeze()
    compact_views = ViewSet(definitions)
    compact_views.materialize(frozen)
    return dict_views, compact_views, frozen


class TestMatchJoinEquivalence:
    def test_randomized_equivalence_and_theorem1(self):
        labels = tuple(f"l{i}" for i in range(6))
        checked = 0
        for seed in range(12):
            graph = random_graph(200, 500, labels=labels, seed=seed)
            definitions = list(generate_views(labels, 10, seed=seed))
            dict_views, compact_views, frozen = _materialized_pair(
                graph, definitions
            )
            for qseed in range(3):
                query = query_from_views(
                    dict_views, 4, 6, seed=100 * seed + qseed
                )
                containment = contains(query, dict_views)
                assert containment.holds  # guaranteed by construction
                via_dict = match_join(query, containment, dict_views)
                via_compact = match_join(query, containment, compact_views)
                assert via_dict == via_compact
                # Theorem 1: MatchJoin equals direct evaluation, on
                # either backend.
                assert via_dict.edge_matches == match(query, graph).edge_matches
                assert via_dict.edge_matches == match(query, frozen).edge_matches
                checked += 1
        assert checked == 36

    def test_fast_path_engages_on_shared_snapshot(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=3)
        definitions = list(generate_views(labels, 8, seed=3))
        dict_views, compact_views, _ = _materialized_pair(graph, definitions)
        query = query_from_views(dict_views, 4, 6, seed=7)
        containment = contains(query, dict_views)
        with matchjoin_metrics() as count:
            match_join(query, containment, compact_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
            # Dict-backend extensions carry no payload: node-key rows.
            match_join(query, containment, dict_views)
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
        dict_views, compact_views, _ = _materialized_pair(graph, definitions)
        query = query_from_views(dict_views, 4, 5, seed=9)
        containment = contains(query, dict_views)
        naive = match_join(query, containment, compact_views, optimized=False)
        assert naive == match_join(query, containment, dict_views)

    def test_extensions_pickle_with_payload(self):
        import pickle

        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(60, 150, labels=labels, seed=2)
        views = ViewSet(generate_views(labels, 5, seed=2))
        frozen = graph.freeze()
        views.materialize(frozen)
        revived = pickle.loads(pickle.dumps(views.extensions()))
        for name, extension in views.extensions().items():
            twin = revived[name]
            assert twin.edge_matches == extension.edge_matches
            assert twin.compact is not None
            assert twin.compact.token == extension.compact.token


# ----------------------------------------------------------------------
# ViewSet snapshot bookkeeping
# ----------------------------------------------------------------------
class TestSnapshotBookkeeping:
    def test_viewset_records_snapshot_token(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        view = ViewDefinition("v", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))
        views = ViewSet([view])
        views.materialize(g)
        assert views.snapshot_token is None
        assert views.extension("v").snapshot_version is None
        frozen = g.freeze()
        views.materialize(frozen)
        assert views.snapshot_token == frozen.snapshot_token
        assert views.extension("v").snapshot_version == frozen.snapshot_version
        assert views.subset(["v"]).snapshot_token == frozen.snapshot_token


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
        # The engine adopts the tracker's maintained graph copy, so
        # snapshots follow the same update stream the views do.
        assert engine.graph is tracker.graph
        first = engine.snapshot()
        assert first is not None
        nodes = list(tracker.graph.nodes())
        source = next(
            node for node in nodes
            if not tracker.graph.has_edge(node, nodes[0])
        )
        tracker.insert_edge(source, nodes[0])
        second = engine.snapshot()
        # The update is visible, but absorbed as a journal-driven
        # refresh of the previous snapshot -- not a drop-and-rebuild.
        assert second is not first
        assert second.snapshot_version == tracker.graph.version
        assert second.extends_token == first.snapshot_token
        assert second.has_edge(source, nodes[0])

    def test_views_only_engine_has_no_snapshot(self, workload):
        _, views, _ = workload
        engine = QueryEngine(views)
        assert engine.snapshot() is None


# ----------------------------------------------------------------------
# The equivalence suite over the flat shared-memory backend
# ----------------------------------------------------------------------
def _freeze(graph, backend):
    """``backend``: "compact" (plain snapshot) or "flat" (shared)."""
    if backend == "flat":
        frozen = graph.freeze(shared=True)
        assert isinstance(frozen, SharedCompactGraph)
        return frozen
    return graph.freeze()


FROZEN_BACKENDS = pytest.mark.parametrize("backend", ["compact", "flat"])


class TestFlatBackendEquivalence:
    """The backend-equivalence suite re-run with ``freeze(shared=True)``.

    A :class:`SharedCompactGraph` reuses the plain snapshot's row
    objects, so in-process evaluation must be bit-identical to the
    compact backend -- and view suites materialized against it carry
    *packed* :class:`~repro.views.flatpack.FlatExtension` payloads,
    which MatchJoin sweeps exactly like the in-process ones.
    """

    @FROZEN_BACKENDS
    def test_match_and_dual_match_randomized(self, backend):
        rng = random.Random(51)
        for _ in range(25):
            g = random_labeled_graph(rng, rng.randint(2, 30), rng.randint(1, 70))
            q = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 8))
            frozen = _freeze(g, backend)
            assert match(q, g) == match(q, frozen)
            assert dual_match(q, g) == dual_match(q, frozen)

    @FROZEN_BACKENDS
    def test_bounded_match_randomized(self, backend):
        rng = random.Random(53)
        for _ in range(15):
            g = random_labeled_graph(rng, rng.randint(3, 25), rng.randint(2, 60))
            base = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
            q = build_bounded(
                {u: base.condition(u) for u in base.nodes()},
                [(u, w, rng.randint(1, 3)) for u, w in base.edges()],
            )
            assert bounded_match(q, g) == bounded_match(q, _freeze(g, backend))

    @FROZEN_BACKENDS
    def test_matchjoin_equivalence_and_theorem1(self, backend):
        labels = tuple(f"l{i}" for i in range(6))
        for seed in range(6):
            graph = random_graph(180, 450, labels=labels, seed=seed)
            definitions = list(generate_views(labels, 9, seed=seed))
            dict_views = ViewSet(definitions)
            dict_views.materialize(graph)
            frozen = _freeze(graph, backend)
            backed_views = ViewSet(definitions)
            backed_views.materialize(frozen)
            for qseed in range(2):
                query = query_from_views(
                    dict_views, 4, 6, seed=100 * seed + qseed
                )
                containment = contains(query, dict_views)
                via_dict = match_join(query, containment, dict_views)
                via_backed = match_join(query, containment, backed_views)
                assert via_dict == via_backed
                # Theorem 1 on the flat backend too.
                assert (
                    via_backed.edge_matches
                    == match(query, frozen).edge_matches
                )

    def test_flat_fast_path_engages_on_flat_extensions(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=31)
        definitions = list(generate_views(labels, 8, seed=31))
        shared = graph.freeze(shared=True)
        flat_views = ViewSet(definitions)
        flat_views.materialize(shared)
        query = query_from_views(flat_views, 4, 6, seed=31)
        containment = contains(query, flat_views)
        compact_views = ViewSet(definitions)
        compact_views.materialize(graph.copy().freeze())
        # Packed (segment-backed) and in-process rows run the same
        # kernel in id space, with the same number of row sweeps.
        with matchjoin_metrics() as count:
            fast = match_join(query, containment, flat_views)
            assert count("total", "ids") == 1
            sweeps = count("sweeps_total", "ids")
            assert fast == match_join(query, containment, compact_views)
            assert count("total", "ids") == 2
            assert count("sweeps_total", "ids") == 2 * sweeps
        for name in flat_views.names():
            assert flat_views.extension(name).compact.store is not None
            assert compact_views.extension(name).compact.store is None

    def test_flat_extensions_survive_refresh_chain(self):
        labels = tuple(f"l{i}" for i in range(5))
        graph = random_graph(120, 300, labels=labels, seed=33)
        shared = graph.freeze(shared=True)
        views = ViewSet(generate_views(labels, 6, seed=33))
        views.materialize(shared)
        token = views.snapshot_token
        # Edge churn refreshes the snapshot in place of a rebuild: ids
        # stay stable and the flat base segment is retained.
        nodes = sorted(graph.nodes(), key=repr)
        source = next(
            v for v in nodes if not graph.has_edge(v, nodes[-1])
        )
        graph.add_edge(source, nodes[-1])
        refreshed = graph.freeze()
        assert isinstance(refreshed, SharedCompactGraph)
        assert refreshed.extends_token == token
        assert refreshed.flat_store is shared.flat_store
        for v in nodes:
            assert refreshed.id_of(v) == shared.id_of(v)
