"""Tests for the workload-driven auto-materialization advisor.

Budget boundaries (never over budget, zero budget means nothing
materialized), eviction safety (version stamps strand cached answers
instead of corrupting them), the shared
:func:`~repro.views.selection.selection_stats` rows, engine wiring
(``auto_materialize=`` ticks as answers flow) and the ``repro advise``
CLI.
"""

import json

from repro.cli import main
from repro.engine import QueryEngine, WorkloadAdvisor
from repro.views import ViewDefinition, ViewSet
from repro.views.selection import selection_stats

from helpers import build_graph, build_pattern


def _setup(num_pairs=4, filler=200):
    """A graph whose hot A->B structure is a small fraction of ``|G|``
    (the rest is an unrelated D-chain), so the hot view's extension
    fits comfortably inside the paper's 15% byte budget."""
    nodes = {}
    edges = []
    for i in range(num_pairs):
        nodes[f"a{i}"] = "A"
        nodes[f"b{i}"] = "B"
        edges.append((f"a{i}", f"b{i}"))
        nodes[f"c{i}"] = "C"
        edges.append((f"b{i}", f"c{i}"))
    for i in range(filler):
        nodes[f"d{i}"] = "D"
        if i:
            edges.append((f"d{i - 1}", f"d{i}"))
    graph = build_graph(nodes, edges)
    views = ViewSet(
        [
            ViewDefinition(
                "small", build_pattern({"x": "A", "y": "B"}, [("x", "y")])
            ),
            ViewDefinition(
                "big",
                build_pattern(
                    {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
                ),
            ),
        ]
    )
    hot = build_pattern({"u": "A", "v": "B"}, [("u", "v")])
    return graph, views, hot


class TestBudgetBoundary:
    def test_tick_never_ends_over_budget(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        advisor = WorkloadAdvisor(engine, budget_fraction=0.15)
        budget = advisor.budget_bytes()
        assert budget <= 0.15 * advisor.graph_bytes() + 1
        for _ in range(4):
            engine.answer(hot)
        for _ in range(3):
            report = advisor.tick()
            assert report.used_bytes <= budget
            assert advisor.used_bytes() <= budget

    def test_zero_budget_materializes_nothing(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        advisor = WorkloadAdvisor(engine, budget_bytes=0)
        for _ in range(3):
            engine.answer(hot)
        report = advisor.tick()
        assert report.materialized == []
        assert advisor.used_bytes() == 0
        assert not any(views.is_materialized(n) for n in views.names())

    def test_budget_overflow_evicts_down_to_measured_bytes(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        # Budget below the measured footprint of both extensions
        # together: whatever the advisor materializes, the measured
        # check must evict back under the line.
        views.materialize(graph)
        both = WorkloadAdvisor(engine).used_bytes()
        engine.evict_extensions(views.names())
        advisor = WorkloadAdvisor(engine, budget_bytes=both - 1)
        for _ in range(4):
            engine.answer(hot)
        for _ in range(2):
            report = advisor.tick()
            assert report.used_bytes <= both - 1

    def test_advise_reports_without_applying(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        advisor = WorkloadAdvisor(engine)
        for _ in range(3):
            engine.answer(hot)
        report = advisor.advise()
        assert not report.applied
        assert advisor.ticks == 0
        assert not any(views.is_materialized(n) for n in views.names())
        assert any(s.action == "materialize" for s in report.scores)


class TestEvictionSafety:
    def test_eviction_strands_cached_answers_not_results(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        advisor = WorkloadAdvisor(engine, budget_fraction=0.15)
        for _ in range(4):
            engine.answer(hot)
        advisor.tick()
        before = engine.answer(hot)
        # Evict everything (budget collapses to zero): the next answer
        # re-plans against the bumped version stamps and must match.
        WorkloadAdvisor(engine, budget_bytes=0).tick()
        assert advisor.used_bytes() == 0
        after = engine.answer(hot)
        for edge in hot.edges():
            assert before.matches_of(edge) == after.matches_of(edge)

    def test_inflight_plan_survives_eviction(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        engine.materialize_views(views.names())
        plan = engine.plan(hot)
        engine.evict_extensions(views.names())
        # Executing the stale plan re-plans/re-materializes as needed
        # rather than reading a dropped extension.
        result = engine.execute(plan)
        reference = QueryEngine(
            ViewSet(views.definitions()), graph=graph, planner="direct"
        ).answer(hot)
        for edge in hot.edges():
            assert result.matches_of(edge) == reference.matches_of(edge)


class TestSelectionStats:
    def test_rows_cover_every_view(self):
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph)
        engine.answer(hot)
        rows = selection_stats(views, plan_log=engine.plan_log())
        assert set(rows) == {"small", "big"}
        row = rows["small"]
        assert row["materialized"] is True  # fixed planner materialized it
        assert row["size"] > 0
        assert row["hits"] >= 1
        assert row["maintenance_cost"] == 0.0
        assert rows["big"]["hits"] == 0


class TestEngineWiring:
    def test_auto_materialize_ticks_and_stays_under_budget(self, monkeypatch):
        graph, views, hot = _setup()
        monkeypatch.setattr("repro.engine.advisor.ADVISOR_INTERVAL", 2)
        engine = QueryEngine(
            views, graph=graph, planner="adaptive", auto_materialize=0.15
        )
        advisor = engine.advisor
        assert advisor is not None
        budget = advisor.budget_bytes()
        for _ in range(6):
            engine.answer(hot)
            assert advisor.used_bytes() <= budget
        assert advisor.ticks >= 1
        assert views.is_materialized("small")

    def test_attaching_an_advisor_starts_calibration(self):
        # A fixed-planner engine has no cost model until asked; an
        # advisor built on it asks, so the answers that follow are
        # observed and benefit is priced from measured rates.
        graph, views, hot = _setup()
        engine = QueryEngine(views, graph=graph, planner="fixed")
        assert engine._cost_model is None
        WorkloadAdvisor(engine)
        engine.answer(hot)
        assert engine.cost_model.samples("matchjoin", False) == 1

    def test_advisor_requires_a_graph(self):
        _, views, _ = _setup()
        try:
            QueryEngine(views, planner="fixed", auto_materialize=0.15)
        except ValueError as err:
            assert "graph" in str(err)
        else:
            raise AssertionError("auto_materialize without a graph must fail")


class TestAdviseCli:
    def test_advise_json_smoke(self, tmp_path, capsys):
        from repro.graph.io import write_graph, write_pattern
        from repro.views.io import write_viewset

        graph, views, hot = _setup()
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        write_graph(graph, graph_path)
        write_viewset(views, views_path)
        write_pattern(hot, query_path)
        code = main(
            [
                "advise",
                "--queries", str(query_path),
                "--views", str(views_path),
                "--graph", str(graph_path),
                "--repeat", "3",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget_bytes"] > 0
        assert not payload["applied"]
        names = {s["name"] for s in payload["scores"]}
        assert names == {"small", "big"}
        assert "cost_model" in payload
