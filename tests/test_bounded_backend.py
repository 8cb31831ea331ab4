"""The bounded fast path across the backend stack.

Covers the whole vertical slice:

* id-space bounded BFS primitives on ``CompactGraph`` and the
  ghost-stitched bounded BFS on ``ShardedGraph``;
* the property-based equivalence suite -- ``bounded_match`` must produce
  identical results on the dict backend, the frozen ``CompactGraph``
  backend and the ``ShardedGraph`` backend over randomized graphs and
  bounded patterns (``*`` bounds and self-loops included);
* bounded view materialization against snapshots: id-space
  ``CompactExtension`` payloads with the distance index ``I(V)``,
  pickling through process executors;
* the BMatchJoin id-space fast path engaging on shared-snapshot
  extensions and falling back (with identical results) otherwise;
* the stale-bounded-view maintenance contract: ``ViewSet.apply_delta``
  flags bounded views stale (stamp bump -> answer-cache eviction) and
  ``QueryEngine`` rematerializes them from the refreshed snapshot --
  the regression test that fails on the old always-cached behaviour.
"""

import pickle
import random
import warnings

import pytest

from helpers import (
    build_bounded,
    build_graph,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
    reference_bounded_simulation,
)
from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import ANY, BoundedPattern, CompactGraph, DataGraph
from repro.shard.sharded import ShardedGraph
from repro.simulation import bounded_match
from repro.simulation.bounded import bounded_match_with_distances
from repro.simulation.compact_bounded import compact_bounded_match_with_ids
from repro.views.maintenance import Delta
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition, materialize


def random_bounded(rng, num_nodes, num_edges, max_bound=3, star_prob=0.15):
    """A random connected bounded pattern with mixed finite/* bounds."""
    base = random_pattern(rng, num_nodes, num_edges)
    qb = BoundedPattern()
    for node in base.nodes():
        qb.add_node(node, base.condition(node))
    for source, target in base.edges():
        bound = ANY if rng.random() < star_prob else rng.randint(1, max_bound)
        qb.add_edge(source, target, bound)
    return qb


# ----------------------------------------------------------------------
# Traversal primitives
# ----------------------------------------------------------------------
class TestBoundedTraversal:
    def test_compact_descendants_and_reverse_randomized(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_labeled_graph(rng, rng.randint(2, 30), rng.randint(1, 70))
            f = g.freeze()
            nodes = list(g.nodes())
            for _ in range(5):
                v = rng.choice(nodes)
                bound = rng.randint(1, 4)
                assert f.descendants_within(v, bound) == g.descendants_within(
                    v, bound
                )
                # Reverse bounded BFS against the brute-force transpose.
                targets = set(rng.sample(nodes, rng.randint(1, min(3, len(nodes)))))
                target_ids = {f.id_of(t) for t in targets}
                got = {
                    f.node_of(i)
                    for i in f.reverse_within_ids(target_ids, bound)
                }
                expected = {
                    u
                    for u in nodes
                    if any(
                        t in g.descendants_within(u, bound) for t in targets
                    )
                }
                assert got == expected

    def test_sharded_stitched_bfs_randomized(self):
        rng = random.Random(13)
        for _ in range(12):
            g = random_labeled_graph(rng, rng.randint(3, 30), rng.randint(2, 70))
            sharded = ShardedGraph(
                g,
                num_shards=rng.randint(2, 4),
                strategy=rng.choice(("hash", "label", "bfs")),
            )
            for v in rng.sample(list(g.nodes()), min(6, len(g))):
                bound = rng.randint(1, 5)
                assert sharded.descendants_within(v, bound) == (
                    g.descendants_within(v, bound)
                )


# ----------------------------------------------------------------------
# bounded_match backend equivalence
# ----------------------------------------------------------------------
class TestBoundedMatchEquivalence:
    def test_dict_vs_compact_randomized(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_labeled_graph(rng, rng.randint(2, 30), rng.randint(1, 80))
            q = random_bounded(rng, rng.randint(2, 5), rng.randint(1, 8))
            via_dict = bounded_match(q, g)
            via_compact = bounded_match(q, g.freeze())
            assert via_dict == via_compact
            reference = reference_bounded_simulation(q, g)
            if reference is None:
                assert not via_dict
            else:
                assert via_dict.node_matches == reference

    def test_dict_vs_sharded_randomized(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_labeled_graph(rng, rng.randint(3, 25), rng.randint(2, 60))
            q = random_bounded(rng, rng.randint(2, 4), rng.randint(1, 6))
            sharded = ShardedGraph(g, num_shards=rng.randint(2, 3))
            assert bounded_match(q, g) == bounded_match(q, sharded)

    def test_self_loops_and_star_bounds(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_labeled_graph(rng, rng.randint(2, 20), rng.randint(1, 50))
            for node in rng.sample(list(g.nodes()), min(2, len(g))):
                g.add_edge(node, node)
            q = random_bounded(rng, rng.randint(2, 4), rng.randint(1, 6),
                               star_prob=0.5)
            for node in rng.sample(list(q.nodes()), 1):
                q.add_edge(node, node, ANY)
            assert bounded_match(q, g) == bounded_match(q, g.freeze())

    def test_materialized_distances_agree_across_backends(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_labeled_graph(rng, rng.randint(3, 25), rng.randint(2, 60))
            q = random_bounded(rng, 2, rng.randint(1, 3), star_prob=0.2)
            definition = ViewDefinition("v", q)
            on_dict = materialize(definition, g)
            on_compact = materialize(definition, g.freeze())
            on_sharded = materialize(definition, ShardedGraph(g, num_shards=2))
            assert on_dict.edge_matches == on_compact.edge_matches
            assert on_dict.edge_matches == on_sharded.edge_matches
            assert on_dict.distances == on_compact.distances
            assert on_dict.distances == on_sharded.distances
            # Snapshot materialization carries the id-space payload.
            assert on_compact.compact is not None
            assert on_sharded.compact is not None
            if any(on_dict.edge_matches.values()):
                assert on_compact.compact.distances is not None

    def test_compact_payload_matches_node_key_form(self):
        g = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"},
            [(1, 2), (2, 3), (1, 3), (3, 4)],
        )
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", 3)])
        f = g.freeze()
        result, id_rows, index = compact_bounded_match_with_ids(
            q, f, with_distances=True
        )
        decode = f.node_table.__getitem__
        decoded = {
            (decode(v), decode(w)): d for (v, w), d in index.items()
        }
        # Only node 1 matches "a"; 1 -> 3 -> 4 is the shortest B-path.
        assert decoded == {(1, 2): 1, (1, 4): 2}
        pairs = {
            (decode(v), decode(w)) for v, w in zip(*id_rows[("a", "b")])
        }
        assert pairs == result.edge_matches[("a", "b")]


# ----------------------------------------------------------------------
# BMatchJoin: fast path vs fallback
# ----------------------------------------------------------------------
def _bounded_workload(seed, num_views=8, nodes=150, edges=400):
    labels = tuple(f"l{i}" for i in range(6))
    graph = random_graph(nodes, edges, labels=labels, seed=seed)
    definitions = list(
        generate_views(labels, num_views, seed=seed, bounded=True, max_bound=3)
    )
    dict_views = ViewSet(definitions)
    dict_views.materialize(graph)
    frozen = graph.freeze()
    compact_views = ViewSet(definitions)
    compact_views.materialize(frozen)
    return graph, frozen, dict_views, compact_views


class TestBMatchJoinFastPath:
    def test_randomized_equivalence_and_theorem9(self):
        checked = 0
        for seed in range(6):
            graph, frozen, dict_views, compact_views = _bounded_workload(seed)
            for qseed in range(3):
                query = query_from_views(
                    dict_views, 4, 6, seed=100 * seed + qseed
                )
                assert isinstance(query, BoundedPattern)
                containment = bounded_contains(query, dict_views)
                assert containment.holds
                via_dict = bounded_match_join(query, containment, dict_views)
                via_compact = bounded_match_join(
                    query, containment, compact_views
                )
                assert via_dict == via_compact
                # Theorem 9: BMatchJoin equals direct BMatch, on either
                # backend.
                direct = bounded_match(query, graph)
                assert via_dict.edge_matches == direct.edge_matches
                assert bounded_match(query, frozen) == direct
                checked += 1
        assert checked == 18

    def test_fast_path_engages_on_shared_snapshot(self):
        _, _, dict_views, compact_views = _bounded_workload(3)
        query = query_from_views(dict_views, 4, 6, seed=7)
        containment = bounded_minimal_views(query, dict_views)
        with matchjoin_metrics() as count:
            bounded_match_join(query, containment, compact_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
            # Dict-backend extensions carry no payload: node-key rows.
            bounded_match_join(query, containment, dict_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 1)

    def test_fast_path_declines_on_mixed_snapshots(self):
        graph, frozen, dict_views, compact_views = _bounded_workload(4)
        query = query_from_views(dict_views, 4, 6, seed=5)
        containment = bounded_contains(query, compact_views)
        names = {
            name for refs in containment.mapping.values() for name, _ in refs
        }
        assert names
        graph.add_node("poke", labels="l0")
        compact_views.materialize(graph.freeze(), names=[sorted(names)[0]])
        extensions = compact_views.extensions()
        tokens = {
            extensions[name].compact.token
            for name in names
            if extensions[name].compact is not None
        }
        with matchjoin_metrics() as count:
            result = bounded_match_join(query, containment, compact_views)
            assert count("total", "keys" if len(tokens) > 1 else "ids") == 1
        assert result.edge_matches == bounded_match(query, graph).edge_matches

    def test_tighter_query_bounds_filter_through_distances(self):
        # View at bound 3 materializes far-apart pairs; a query edge at
        # bound 1 must drop them, identically on both paths.
        g = build_graph(
            {1: "A", 2: "B", 5: "A", 6: "X", 7: "B"},
            [(1, 2), (5, 6), (6, 7)],
        )
        view = ViewDefinition(
            "wide", build_bounded({"a": "A", "b": "B"}, [("a", "b", 3)])
        )
        for backend, path in ((g, "keys"), (g.freeze(), "ids")):
            views = ViewSet([view])
            views.materialize(backend)
            query = build_bounded({"a": "A", "b": "B"}, [("a", "b", 1)])
            containment = bounded_contains(query, views)
            assert containment.holds
            with matchjoin_metrics() as count:
                result = bounded_match_join(query, containment, views)
                # On the snapshot the evaluation runs in id space.
                assert count("total", path) == 1
            assert result.edge_matches[("a", "b")] == {(1, 2)}

    def test_naive_engine_ignores_fast_path(self):
        _, _, dict_views, compact_views = _bounded_workload(5)
        query = query_from_views(dict_views, 4, 5, seed=9)
        containment = bounded_contains(query, dict_views)
        naive = bounded_match_join(
            query, containment, compact_views, optimized=False
        )
        assert naive == bounded_match_join(query, containment, dict_views)

    def test_sharded_bounded_extensions_share_composite_token(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(120, 320, labels=labels, seed=6)
        definitions = list(
            generate_views(labels, 8, seed=6, bounded=True, max_bound=3)
        )
        sharded = ShardedGraph(graph, num_shards=3)
        views = ViewSet(definitions)
        views.materialize(sharded)
        assert views.snapshot_token == sharded.snapshot_token
        query = query_from_views(views, 4, 6, seed=11)
        containment = bounded_contains(query, views)
        with matchjoin_metrics() as count:
            result = bounded_match_join(query, containment, views)
            assert count("total", "ids") == 1
        assert result.edge_matches == bounded_match(query, graph).edge_matches

    def test_extensions_pickle_with_distance_payload(self):
        _, frozen, _, compact_views = _bounded_workload(2, num_views=5,
                                                        nodes=60, edges=150)
        revived = pickle.loads(pickle.dumps(compact_views.extensions()))
        for name, extension in compact_views.extensions().items():
            twin = revived[name]
            assert twin.edge_matches == extension.edge_matches
            assert twin.distances == extension.distances
            assert twin.compact is not None
            assert twin.compact.token == extension.compact.token
            assert twin.compact.distances == extension.compact.distances


# ----------------------------------------------------------------------
# Engine integration: snapshots, shards, process executors
# ----------------------------------------------------------------------
class TestEngineBoundedIntegration:
    @pytest.fixture
    def workload(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(120, 320, labels=labels, seed=9)
        views = ViewSet(
            generate_views(labels, 8, seed=9, bounded=True, max_bound=3)
        )
        queries = [query_from_views(views, 4, 6, seed=s) for s in range(3)]
        return graph, views, queries

    def test_bounded_plans_evaluate_against_snapshot(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph)
        results = engine.answer_batch(queries)
        snapshot = engine.snapshot()
        assert isinstance(snapshot, CompactGraph)
        # On-demand materialization bound every bounded extension to the
        # engine's snapshot (one shared token).
        assert views.snapshot_token == snapshot.snapshot_token
        for result, query in zip(results, queries):
            assert result.edge_matches == bounded_match(query, graph).edge_matches

    def test_bounded_direct_plan_runs_on_snapshot(self, workload):
        graph, _, _ = workload
        empty = ViewSet()
        engine = QueryEngine(empty, graph=graph)
        query = random_bounded(random.Random(3), 3, 3)
        plan = engine.plan(query)
        assert plan.strategy == "direct"
        result = engine.execute(plan)
        assert result.edge_matches == bounded_match(query, graph).edge_matches

    def test_sharded_engine_answers_bounded(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph, shards=2)
        for query in queries:
            result = engine.answer(query)
            assert result.edge_matches == bounded_match(query, graph).edge_matches

    def test_process_executor_round_trips_distance_payloads(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph)
        serial = engine.answer_batch(queries)
        fresh = QueryEngine(views, graph=graph)
        parallel = fresh.answer_batch(queries, executor="process", workers=2)
        for a, b in zip(serial, parallel):
            assert a.edge_matches == b.edge_matches


# ----------------------------------------------------------------------
# Stale bounded views: the maintenance regression
# ----------------------------------------------------------------------
def _staleness_fixture():
    """Graph + bounded view where an insertion changes the bounded answer."""
    g = build_graph(
        {1: "A", 2: "B", 4: "B", 5: "X", 6: "X"},
        [(1, 2), (1, 5), (5, 6), (6, 4)],
    )
    pattern = build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
    view = ViewDefinition("bview", pattern)
    query = build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
    return g, view, query


class TestStaleBoundedViews:
    def test_apply_delta_flags_and_stamps_stale_bounded(self):
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        views.materialize(g.freeze())
        with pytest.warns(UserWarning, match="bview"):
            tracker = views.track(g)
        assert tracker.skipped_bounded == ("bview",)
        before = views.view_version("bview")
        report = views.apply_delta(Delta().insert(5, 4))
        assert report.applied == 1
        assert report.stale_bounded == ("bview",)
        assert views.is_stale("bview")
        assert views.stale_views() == ("bview",)
        assert views.view_version("bview") > before
        # A no-op batch (edge already present) leaves stamps alone.
        before = views.view_version("bview")
        report = views.apply_delta(Delta().insert(5, 4))
        assert report.applied == 0
        assert report.stale_bounded == ()
        assert views.view_version("bview") == before
        # Rematerializing clears the flag.
        views.materialize(tracker.graph.freeze(), names=["bview"])
        assert not views.is_stale("bview")

    def test_engine_reflects_update_instead_of_cached_answer(self):
        # THE regression: pre-PR, apply_delta left the bounded view's
        # version stamp untouched, so the engine's answer cache kept
        # serving the stale answer after the update.
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        engine = QueryEngine(views, graph=g)
        first = engine.answer(query)
        assert first.edge_matches[("a", "b")] == {(1, 2)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tracker = views.track(g)
        engine.attach_maintenance(tracker)
        # 5 -> 4 puts node 4 within bound 2 of node 1: the bounded
        # answer must gain the pair (1, 4).
        report = views.apply_delta(Delta().insert(5, 4))
        assert report.applied == 1
        second = engine.answer(query)
        expected = bounded_match(query, tracker.graph)
        assert second.edge_matches == expected.edge_matches
        assert second.edge_matches[("a", "b")] == {(1, 2), (1, 4)}
        # And the refreshed extension is bound to the refreshed snapshot.
        assert views.extension("bview").compact is not None
        assert (
            views.extension("bview").compact.token
            == engine.snapshot().snapshot_token
        )
        assert not views.is_stale("bview")

    def test_direct_tracker_drive_flags_stale_via_import_maintenance(self):
        # import_maintenance is the single choke point: driving the
        # tracker handle directly (no apply_delta) must still strand
        # bounded views once the updates are pulled in.
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        views.materialize(g.freeze())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tracker = views.track(g)
        before = views.view_version("bview")
        tracker.insert_edge(5, 4)
        views.import_maintenance()
        assert views.is_stale("bview")
        assert views.view_version("bview") > before
        # A sync with no new updates does not re-stamp.
        before = views.view_version("bview")
        views.import_maintenance()
        assert views.view_version("bview") == before

    def test_attach_without_updates_keeps_bounded_answers_live(self):
        # Attaching a quiet tracker is not a data change: no staleness,
        # no stamp bump, cached bounded answers keep hitting.
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        engine = QueryEngine(views, graph=g)
        engine.answer(query)
        before = views.view_version("bview")
        from repro.views.maintenance import IncrementalViewSet

        engine.attach_maintenance(IncrementalViewSet([], g))
        assert not views.is_stale("bview")
        assert views.view_version("bview") == before
        assert engine.answer(query).stats.cache_hit

    def test_direct_tracker_updates_also_strand_bounded_answers(self):
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        engine = QueryEngine(views, graph=g)
        first = engine.answer(query)
        assert first.edge_matches[("a", "b")] == {(1, 2)}
        from repro.views.maintenance import IncrementalViewSet

        tracker = IncrementalViewSet([], g)
        engine.attach_maintenance(tracker)
        tracker.insert_edge(5, 4)
        second = engine.answer(query)
        assert second.edge_matches[("a", "b")] == {(1, 2), (1, 4)}
        assert not second.stats.cache_hit

    def test_unchanged_simulation_views_stay_live_while_bounded_go_stale(self):
        g, view, query = _staleness_fixture()
        from helpers import build_pattern

        plain = ViewDefinition(
            "plain", build_pattern({"x": "X", "y": "X"}, [("x", "y")])
        )
        views = ViewSet([view, plain])
        views.materialize(g.freeze())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            views.track(g)
        plain_before = views.view_version("plain")
        report = views.apply_delta(Delta().insert(5, 4))
        assert report.stale_bounded == ("bview",)
        # The insertion is irrelevant to the simulation view: its stamp
        # holds, so answers over it keep hitting.
        assert views.view_version("plain") == plain_before
        assert not views.is_stale("plain")
