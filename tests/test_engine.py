"""Tests for the QueryEngine subsystem (planner, caches, batch executor)."""

import pytest

from repro import QueryEngine, match, match_join
from repro.core.containment import contains
from repro.core.minimal import minimal_views
from repro.engine.cache import LRUCache
from repro.engine.plan import pattern_key
from repro.errors import NotContainedError
from repro.graph.io import write_graph, write_pattern
from repro.simulation import bounded_match
from repro.views import ViewDefinition, ViewSet
from repro.views.io import write_viewset
from repro.views.maintenance import IncrementalViewSet

from helpers import build_bounded, build_graph, build_pattern


@pytest.fixture
def graph():
    return build_graph(
        {1: "A", 2: "B", 3: "C", 4: "B", 5: "A", 6: "C"},
        [(1, 2), (2, 3), (1, 4), (4, 3), (5, 4), (4, 6), (3, 6)],
    )


@pytest.fixture
def definitions():
    v1 = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
    v2 = build_pattern({"b": "B", "c": "C"}, [("b", "c")])
    return [ViewDefinition("V1", v1), ViewDefinition("V2", v2)]


@pytest.fixture
def views(graph, definitions):
    vs = ViewSet(definitions)
    vs.materialize(graph)
    return vs


@pytest.fixture
def contained_query():
    return build_pattern(
        {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
    )


@pytest.fixture
def uncovered_query():
    return build_pattern({"x": "C", "y": "A"}, [("x", "y")])


class TestPlanner:
    def test_contained_query_plans_matchjoin(self, views, contained_query):
        engine = QueryEngine(views)
        plan = engine.plan(contained_query)
        assert plan.strategy == "matchjoin"
        assert plan.uses_views
        assert set(plan.views_used) == {"V1", "V2"}
        assert plan.reason is None
        assert "matchjoin" in plan.explain()

    def test_not_contained_query_plans_direct(self, views, uncovered_query):
        engine = QueryEngine(views)
        plan = engine.plan(uncovered_query)
        assert plan.strategy == "direct"
        assert plan.reason == "not-contained"
        assert plan.views_used == ()
        assert "uncovered" in plan.explain()

    def test_isolated_node_query_plans_direct(self, views):
        query = build_pattern({"x": "A", "y": "B", "w": "C"}, [("x", "y")])
        engine = QueryEngine(views)
        plan = engine.plan(query)
        assert plan.strategy == "direct"
        assert plan.reason == "isolated-nodes"

    def test_selection_override(self, views, contained_query):
        engine = QueryEngine(views, selection="minimal")
        plan = engine.plan(contained_query, selection="minimum")
        assert plan.selection == "minimum"
        with pytest.raises(ValueError):
            engine.plan(contained_query, selection="bogus")

    def test_containment_decision_is_cached(self, views, contained_query):
        engine = QueryEngine(views)
        first = engine.plan(contained_query)
        second = engine.plan(contained_query)
        assert not first.containment_cached
        assert second.containment_cached
        # Structurally equal rebuild of the same query shares the entry.
        rebuilt = build_pattern(
            {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
        )
        assert engine.plan(rebuilt).containment_cached
        assert engine.cache_stats()["containment"]["hits"] == 2

    def test_bounded_query_flagged(self, views):
        query = build_bounded({"x": "A", "y": "B"}, [("x", "y", 2)])
        engine = QueryEngine(views)
        assert engine.plan(query).bounded


class TestPatternKey:
    def test_equal_for_structurally_equal_queries(self):
        a = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        b = build_pattern({"y": "B", "x": "A"}, [("x", "y")])
        assert pattern_key(a) == pattern_key(b)

    def test_distinguishes_conditions_edges_and_bounds(self):
        base = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        other_label = build_pattern({"x": "A", "y": "C"}, [("x", "y")])
        reversed_edge = build_pattern({"x": "A", "y": "B"}, [("y", "x")])
        bounded = build_bounded({"x": "A", "y": "B"}, [("x", "y", 2)])
        keys = {
            pattern_key(base),
            pattern_key(other_label),
            pattern_key(reversed_edge),
            pattern_key(bounded),
        }
        assert len(keys) == 4


class TestExecution:
    def test_matchjoin_result_matches_reference(
        self, graph, views, contained_query
    ):
        engine = QueryEngine(views)
        result = engine.answer(contained_query)
        reference = match_join(
            contained_query, minimal_views(contained_query, views), views
        )
        assert result.edge_matches == reference.edge_matches
        assert result.edge_matches == match(contained_query, graph).edge_matches
        assert result.stats.strategy == "matchjoin"
        assert result.stats.elapsed >= 0.0

    def test_direct_fallback_matches_match(self, graph, views, uncovered_query):
        engine = QueryEngine(views, graph=graph)
        result = engine.answer(uncovered_query)
        assert result.edge_matches == match(uncovered_query, graph).edge_matches
        assert result.stats.strategy == "direct"

    def test_direct_without_graph_raises_not_contained(
        self, views, uncovered_query
    ):
        engine = QueryEngine(views)
        with pytest.raises(NotContainedError):
            engine.answer(uncovered_query)

    def test_materializes_missing_extensions_on_demand(
        self, graph, definitions, contained_query
    ):
        cold_views = ViewSet(definitions)  # nothing materialized
        engine = QueryEngine(cold_views, graph=graph)
        result = engine.answer(contained_query)
        assert result.edge_matches == match(contained_query, graph).edge_matches
        assert cold_views.is_materialized("V1")
        # The materialization bumped the catalog version *after* the
        # plan was keyed; the answer must still land under the current
        # key so the very next identical query is a cache hit.
        assert engine.answer(contained_query).stats.cache_hit

    def test_batch_on_demand_materialization_warms_cache(
        self, graph, definitions, contained_query
    ):
        cold_views = ViewSet(definitions)
        engine = QueryEngine(cold_views, graph=graph)
        engine.answer_batch([contained_query])
        warm = engine.answer_batch([contained_query])
        assert all(r.stats.cache_hit for r in warm)

    def test_bounded_pipeline(self, graph):
        bview = ViewDefinition(
            "BV", build_bounded({"a": "A", "c": "C"}, [("a", "c", 2)])
        )
        bviews = ViewSet([bview])
        bviews.materialize(graph)
        query = build_bounded({"x": "A", "y": "C"}, [("x", "y", 2)])
        engine = QueryEngine(bviews, graph=graph)
        result = engine.answer(query)
        assert result.edge_matches == bounded_match(query, graph).edge_matches


class TestAnswerCache:
    def test_second_answer_is_a_cache_hit_with_same_result(
        self, views, contained_query
    ):
        engine = QueryEngine(views)
        first = engine.answer(contained_query)
        second = engine.answer(contained_query)
        assert not first.stats.cache_hit
        assert second.stats.cache_hit
        assert second.edge_matches == first.edge_matches
        assert engine.cache_stats()["answers"]["hits"] == 1

    def test_catalog_mutation_invalidates(self, graph, views, contained_query):
        engine = QueryEngine(views, graph=graph)
        engine.answer(contained_query)
        views.materialize(graph)  # bumps version -> stale keys
        refreshed = engine.answer(contained_query)
        assert not refreshed.stats.cache_hit

    def test_explicit_invalidate(self, views, contained_query):
        engine = QueryEngine(views)
        engine.answer(contained_query)
        engine.invalidate()
        assert not engine.answer(contained_query).stats.cache_hit

    def test_cache_disabled_by_zero_size(self, views, contained_query):
        engine = QueryEngine(views, answer_cache_size=0)
        engine.answer(contained_query)
        assert not engine.answer(contained_query).stats.cache_hit


class TestViewSetRemove:
    def test_remove_drops_definition_and_extension(self, views):
        assert views.is_materialized("V2")
        definitions_before = views.definitions_version
        version_before = views.version
        views.remove("V2")
        assert "V2" not in views
        assert not views.is_materialized("V2")
        with pytest.raises(KeyError):
            views.definition("V2")
        with pytest.raises(KeyError):
            views.extension("V2")
        # Both counters bump: containment caches and answer caches must
        # see the eviction.
        assert views.definitions_version > definitions_before
        assert views.version > version_before
        with pytest.raises(KeyError):
            views.remove("V2")  # already gone

    def test_remove_invalidates_engine_caches(
        self, graph, views, contained_query
    ):
        engine = QueryEngine(views, graph=graph)
        first = engine.answer(contained_query)
        assert first.stats.strategy == "matchjoin"
        assert engine.plan(contained_query).containment_cached
        # Evicting a view the λ mapping uses must strand both the
        # cached containment decision and the cached answer.
        views.remove("V2")
        plan = engine.plan(contained_query)
        assert not plan.containment_cached
        assert plan.strategy == "direct"  # no longer coverable
        refreshed = engine.execute(plan)
        assert not refreshed.stats.cache_hit
        assert refreshed.edge_matches == first.edge_matches
        # A definition-only view (never materialized) is removable too.
        views.remove("V1")
        assert len(views) == 0


class TestMaintenanceIntegration:
    def test_view_maintenance_invalidates_and_refreshes(
        self, graph, definitions, contained_query
    ):
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(tracker.as_viewset(), graph=graph)
        engine.attach_maintenance(tracker)
        before = engine.answer(contained_query)
        assert before.edge_matches == match(contained_query, graph).edge_matches

        tracker.delete_edge(2, 3)
        after = engine.answer(contained_query)
        assert not after.stats.cache_hit
        shrunk = graph.copy()
        shrunk.remove_edge(2, 3)
        assert after.edge_matches == match(contained_query, shrunk).edge_matches

        # Unchanged catalog afterwards: answers cache again.
        assert engine.answer(contained_query).stats.cache_hit

    def test_maintenance_keeps_containment_decisions(
        self, graph, definitions, contained_query
    ):
        # Extension refreshes invalidate cached *answers* but not the
        # cached containment decisions (those depend on definitions
        # only) -- updates must not re-pay the Theorem 3 check.
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(tracker.as_viewset(), graph=graph)
        engine.attach_maintenance(tracker)
        engine.answer(contained_query)
        misses_before = engine.cache_stats()["containment"]["misses"]
        tracker.delete_edge(2, 3)
        tracker.insert_edge(2, 3)
        engine.answer(contained_query)
        assert engine.cache_stats()["containment"]["misses"] == misses_before

    def test_insert_edge_with_new_node(self, graph, definitions, contained_query):
        # add_edge auto-creates endpoints; the pre-mutation relevance
        # check must tolerate nodes the graph has not seen yet.
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(tracker.as_viewset(), graph=graph)
        engine.attach_maintenance(tracker)
        tracker.insert_edge(99, 1)  # 99 is brand new
        result = engine.answer(contained_query)
        grown = graph.copy()
        grown.add_edge(99, 1)
        assert result.edge_matches == match(contained_query, grown).edge_matches

    def test_detach_stops_following(self, graph, definitions, contained_query):
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(tracker.as_viewset(), graph=graph)
        engine.attach_maintenance(tracker)
        engine.answer(contained_query)
        engine.detach_maintenance()
        tracker.delete_edge(2, 3)
        assert engine.answer(contained_query).stats.cache_hit


class TestBatch:
    @pytest.fixture
    def batch(self, contained_query, uncovered_query):
        return [
            contained_query,
            uncovered_query,
            build_pattern({"x": "B", "y": "C"}, [("x", "y")]),
            contained_query,  # duplicate: evaluated once, delivered twice
        ]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_batch_matches_sequential(self, graph, views, batch, executor):
        engine = QueryEngine(views, graph=graph, executor=executor, workers=2)
        results = engine.answer_batch(batch)
        assert len(results) == len(batch)
        for query, result in zip(batch, results):
            assert result.edge_matches == match(query, graph).edge_matches

    def test_duplicate_queries_evaluated_once(self, graph, views, batch):
        engine = QueryEngine(views, graph=graph)
        results = engine.answer_batch(batch)
        assert not results[0].stats.cache_hit
        assert results[3].stats.cache_hit

    def test_warm_batch_all_hits(self, graph, views, batch):
        engine = QueryEngine(views, graph=graph)
        engine.answer_batch(batch)
        warm = engine.answer_batch(batch)
        assert all(r.stats.cache_hit for r in warm)
        assert all(r.stats.elapsed == 0.0 for r in warm)

    def test_unknown_executor_rejected(self, views, contained_query):
        engine = QueryEngine(views)
        with pytest.raises(ValueError):
            engine.answer_batch([contained_query], executor="gpu")
        with pytest.raises(ValueError):
            QueryEngine(views, executor="gpu")


class TestLRUCache:
    def test_eviction_order_and_stats(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_purge_drops_what_the_predicate_names(self):
        cache = LRUCache(maxsize=4)
        for key in "abcd":
            cache.put(key, ord(key))
        assert cache.get("a") == ord("a")  # now the most recent
        dropped = cache.purge(lambda key, value: key == "b" or value == ord("d"))
        assert dropped == 2 and cache.stats.evictions == 2
        assert cache.values() == [ord("c"), ord("a")]  # recency kept
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
        cache.put("e", 5)
        cache.put("f", 6)
        assert len(cache) == 4 and cache.stats.evictions == 2

    def test_zero_size_never_stores(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestEngineCli:
    def test_engine_subcommand_batch_and_explain(self, tmp_path, capsys):
        from repro.cli import main

        graph = build_graph(
            {1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)]
        )
        views = ViewSet(
            [
                ViewDefinition(
                    "V1", build_pattern({"a": "A", "b": "B"}, [("a", "b")])
                ),
                ViewDefinition(
                    "V2", build_pattern({"b": "B", "c": "C"}, [("b", "c")])
                ),
            ]
        )
        views.materialize(graph)
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        q1_path = tmp_path / "q1.json"
        q2_path = tmp_path / "q2.json"
        write_graph(graph, graph_path)
        write_viewset(views, views_path)
        write_pattern(
            build_pattern({"x": "A", "y": "B"}, [("x", "y")]), q1_path
        )
        write_pattern(
            build_pattern({"x": "B", "y": "C"}, [("x", "y")]), q2_path
        )

        rc = main([
            "engine", "--queries", str(q1_path), str(q2_path),
            "--views", str(views_path), "--graph", str(graph_path),
            "--repeat", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[cold]" in out and "[warm #1]" in out
        assert "via cache" in out
        assert "answers cache" in out

        rc = main([
            "engine", "--queries", str(q1_path),
            "--views", str(views_path), "--explain",
        ])
        assert rc == 0
        assert "strategy : matchjoin" in capsys.readouterr().out

    def test_engine_subcommand_not_contained_without_graph(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        views = ViewSet(
            [ViewDefinition("V1", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        views_path = tmp_path / "v.json"
        q_path = tmp_path / "q.json"
        write_viewset(views, views_path)
        write_pattern(build_pattern({"x": "C", "y": "C"}, [("x", "y")]), q_path)
        rc = main([
            "engine", "--queries", str(q_path), "--views", str(views_path),
        ])
        assert rc == 1
        assert "not contained" in capsys.readouterr().err
