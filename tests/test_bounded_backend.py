"""The bounded fast path across the backend stack.

Covers the whole vertical slice:

* id-space bounded BFS primitives on ``CompactGraph`` and the
  ghost-stitched bounded BFS on an ingested ``ShardedGraph``;
* ``bounded_match`` on self-loops and ``*`` bounds, dict vs frozen
  (randomized answers on every backend, and BMatchJoin against BMatch,
  are ``test_oracle_machine.py``'s);
* bounded view materialization against snapshots: id-space
  ``CompactExtension`` payloads with the distance index ``I(V)``;
* the BMatchJoin id-space fast path engaging on shared-snapshot
  extensions and falling back (with identical results) otherwise;
* the stale-bounded-view maintenance contract: ``ViewSet.apply_delta``
  flags bounded views stale (stamp bump -> answer-cache eviction) and
  ``QueryEngine`` rematerializes them from the refreshed snapshot --
  the regression test that fails on the old always-cached behaviour.
"""

import random

from helpers import (
    build_bounded,
    build_graph,
    dict_extension,
    ingested,
    key_only,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
    str_keyed,
)
from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import ANY, BoundedPattern
from repro.simulation import bounded_match
from repro.simulation.compact_bounded import compact_bounded_match_with_ids
from repro.views.maintenance import Delta, IncrementalViewSet
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

    def test_sharded_stitched_bfs_randomized(self, tmp_path):
        rng = random.Random(13)
        for _ in range(12):
            edges, labels = str_keyed(
                random_labeled_graph(rng, rng.randint(3, 30), rng.randint(2, 70))
            )
            sharded, g = ingested(edges, labels, rng.randint(2, 4), tmp_path)
            for v in rng.sample(list(g.nodes()), min(6, len(g))):
                bound = rng.randint(1, 5)
                assert sharded.descendants_within(v, bound) == (
                    g.descendants_within(v, bound)
                )


# ----------------------------------------------------------------------
# bounded_match backend equivalence
# ----------------------------------------------------------------------
class TestBoundedMatchEquivalence:
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

    def test_materialized_distances_agree_across_backends(self, tmp_path):
        rng = random.Random(41)
        for _ in range(10):
            edges, labels = str_keyed(
                random_labeled_graph(rng, rng.randint(3, 25), rng.randint(2, 60))
            )
            sharded, g = ingested(edges, labels, 2, tmp_path)
            q = random_bounded(rng, 2, rng.randint(1, 3), star_prob=0.2)
            definition = ViewDefinition("v", q)
            on_dict = dict_extension(definition, g)
            on_compact = materialize(definition, g.freeze())
            on_sharded = materialize(definition, sharded)
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
    frozen = graph.freeze()
    compact_views = ViewSet(definitions)
    compact_views.materialize(frozen)
    return graph, frozen, key_only(compact_views), compact_views


class TestBMatchJoinFastPath:
    def test_fast_path_engages_on_shared_snapshot(self):
        _, _, key_views, compact_views = _bounded_workload(3)
        query = query_from_views(key_views, 4, 6, seed=7)
        containment = bounded_minimal_views(query, key_views)
        with matchjoin_metrics() as count:
            bounded_match_join(query, containment, compact_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
            # Key-only extensions carry no payload: node-key rows.
            bounded_match_join(query, containment, key_views)
            assert (count("total", "ids"), count("total", "keys")) == (1, 1)

    def test_fast_path_declines_on_mixed_snapshots(self):
        graph, frozen, key_views, compact_views = _bounded_workload(4)
        query = query_from_views(key_views, 4, 6, seed=5)
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
        views = ViewSet([view])
        views.materialize(g)
        for catalog, path in ((key_only(views), "keys"), (views, "ids")):
            query = build_bounded({"a": "A", "b": "B"}, [("a", "b", 1)])
            containment = bounded_contains(query, catalog)
            assert containment.holds
            with matchjoin_metrics() as count:
                result = bounded_match_join(query, containment, catalog)
                # On the snapshot the evaluation runs in id space.
                assert count("total", path) == 1
            assert result.edge_matches[("a", "b")] == {(1, 2)}

    def test_naive_engine_ignores_fast_path(self):
        _, _, key_views, compact_views = _bounded_workload(5)
        query = query_from_views(key_views, 4, 5, seed=9)
        containment = bounded_contains(query, key_views)
        naive = bounded_match_join(
            query, containment, compact_views, optimized=False
        )
        assert naive == bounded_match_join(query, containment, key_views)

    def test_sharded_bounded_extensions_share_composite_token(self, tmp_path):
        labels = tuple(f"l{i}" for i in range(6))
        sharded, graph = ingested(
            *str_keyed(random_graph(120, 320, labels=labels, seed=6)), 3, tmp_path
        )
        definitions = list(
            generate_views(labels, 8, seed=6, bounded=True, max_bound=3)
        )
        views = ViewSet(definitions)
        views.materialize(sharded)
        assert views.snapshot_token == sharded.snapshot_token
        query = query_from_views(views, 4, 6, seed=11)
        containment = bounded_contains(query, views)
        with matchjoin_metrics() as count:
            result = bounded_match_join(query, containment, views)
            assert count("total", "ids") == 1
        assert result.edge_matches == bounded_match(query, graph).edge_matches


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
    @staticmethod
    def _maintained(views, g):
        """An engine over ``g`` with a tracker attached (the bounded
        view is skipped by it, so it only ever goes stale)."""
        engine = QueryEngine(views, graph=g)
        tracker = IncrementalViewSet(views.definitions(), g)
        engine.attach_maintenance(tracker)
        return engine, tracker

    def test_apply_delta_flags_and_stamps_stale_bounded(self):
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        views.materialize(g.freeze())
        engine, tracker = self._maintained(views, g)
        assert tracker.skipped_bounded == ("bview",)
        before = views.view_version("bview")
        report = engine.apply_delta(Delta().insert(5, 4))
        assert report.applied == 1
        assert report.stale_bounded == ("bview",)
        assert views.is_stale("bview")
        assert views.stale_views() == ("bview",)
        assert views.view_version("bview") > before
        # A no-op batch (edge already present) leaves stamps alone.
        before = views.view_version("bview")
        report = engine.apply_delta(Delta().insert(5, 4))
        assert report.applied == 0
        assert report.stale_bounded == ()
        assert views.view_version("bview") == before
        # Rematerializing clears the flag.
        engine.materialize_views(["bview"])
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
        engine.attach_maintenance(IncrementalViewSet([view], g))
        # 5 -> 4 puts node 4 within bound 2 of node 1: the bounded
        # answer must gain the pair (1, 4).
        report = engine.apply_delta(Delta().insert(5, 4))
        assert report.applied == 1
        second = engine.answer(query)
        g.add_edge(5, 4)  # the tracker leaves ``g`` alone: it is the mirror
        expected = bounded_match(query, g)
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
        # The catalog's import is the single choke point: a batch
        # applied straight to the tracker (not through the engine) must
        # still strand bounded views once the next read pulls it in.
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        views.materialize(g.freeze())
        engine, tracker = self._maintained(views, g)
        before = views.view_version("bview")
        tracker.apply_delta(Delta().insert(5, 4))
        engine.plan(query)
        assert views.is_stale("bview")
        assert views.view_version("bview") > before
        # A read with no new updates does not re-stamp.
        before = views.view_version("bview")
        engine.plan(query)
        assert views.view_version("bview") == before

    def test_attach_without_updates_keeps_bounded_answers_live(self):
        # Attaching a quiet tracker is not a data change: no staleness,
        # no stamp bump, cached bounded answers keep hitting.
        g, view, query = _staleness_fixture()
        views = ViewSet([view])
        engine = QueryEngine(views, graph=g)
        engine.answer(query)
        before = views.view_version("bview")
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
        tracker = IncrementalViewSet([], g)
        engine.attach_maintenance(tracker)
        tracker.apply_delta(Delta().insert(5, 4))
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
        engine, _ = self._maintained(views, g)
        plain_before = views.view_version("plain")
        report = engine.apply_delta(Delta().insert(5, 4))
        assert report.stale_bounded == ("bview",)
        # The insertion is irrelevant to the simulation view: its stamp
        # holds, so answers over it keep hitting.
        assert views.view_version("plain") == plain_before
        assert not views.is_stale("plain")
