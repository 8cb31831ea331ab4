"""Tests for the benchmark harness plumbing (not the timings)."""

import pytest

from helpers import matchjoin_metrics
from repro.bench import workloads
from repro.bench.reporting import Table, timed
from repro.core.containment import contains
from repro.core.bounded.bcontainment import bounded_contains
from repro.graph.io import pattern_to_json


class TestTable:
    def make(self):
        t = Table("Fig. X", "demo", ["x", "alg1 (s)", "alg2 (s)"])
        t.add_row("(4,6)", 0.5, 0.25)
        t.add_row("(6,9)", 1.0, 0.5)
        return t

    def test_columns(self):
        t = self.make()
        assert t.column("x") == ["(4,6)", "(6,9)"]
        assert t.column("alg2 (s)") == [0.25, 0.5]

    def test_markdown(self):
        t = self.make()
        t.notes = "a note"
        md = t.to_markdown()
        assert "### Fig. X: demo" in md
        assert "| (4,6) | 0.5000 | 0.2500 |" in md
        assert md.endswith("a note")

    def test_print(self, capsys):
        self.make().print()
        assert "Fig. X" in capsys.readouterr().out

    def test_timed_returns_best(self):
        calls = []

        def fn():
            calls.append(1)

        elapsed = timed(fn, repeat=3)
        assert len(calls) == 3
        assert elapsed >= 0


class TestWorkloads:
    def setup_method(self):
        workloads.clear_cache()

    def teardown_method(self):
        workloads.clear_cache()

    def test_memoization(self):
        g1, v1 = workloads.synthetic(600)
        g2, v2 = workloads.synthetic(600)
        assert g1 is g2 and v1 is v2
        g3, _ = workloads.synthetic(700)
        assert g3 is not g1

    def test_synthetic_shape(self):
        graph, views = workloads.synthetic(800)
        assert graph.num_nodes == 800
        assert abs(graph.num_edges - 1600) < 400
        assert views.cardinality == 22
        assert views.is_materialized(views.names()[0])

    def test_pick_query_contained_and_preferring_nonempty(self):
        graph, views = workloads.synthetic(800)
        query = workloads.pick_query(views, 4, 6, graph=graph)
        assert contains(query, views).holds

    def test_pick_query_memo_is_per_graph(self):
        """Picks at one scale never leak into another: after picking at
        scale 0.05, the picks at 0.1 are the ones a fresh process makes."""
        def picks(scale):
            graph, views = workloads.dataset("amazon", scale)
            return [
                pattern_to_json(workloads.pick_query(views, n, m, graph=graph))
                for n, m in workloads.AMAZON_SIZES
            ]

        first = picks(0.05)
        after = picks(0.1)
        workloads.clear_cache()
        fresh = picks(0.1)
        assert after == fresh
        assert after != first  # the two scales do pick differently

    def test_bounded_suite_promotion(self):
        graph, views = workloads.synthetic(600)
        bounded = workloads.bounded_suite(views, 3)
        assert bounded.cardinality == views.cardinality
        for definition in bounded:
            assert definition.is_bounded
            for edge in definition.pattern.edges():
                assert definition.pattern.bound(edge) == 3

    def test_bounded_dataset_materializes(self):
        graph, views = workloads.synthetic_bounded(600, 2)
        assert all(views.is_materialized(n) for n in views.names())
        query = workloads.pick_query(views, 3, 4, graph=graph)
        assert bounded_contains(query, views).holds

    def test_overlapping_views_structure(self):
        full, composites = workloads.overlapping_views()
        assert len(full) == len(composites) + 22
        # Small views come first (minimal scans in order).
        assert full.names()[0].startswith("S")
        assert full.names()[-1].startswith("BIG")


class TestExperimentRegistry:
    def test_all_figures_registered(self):
        from repro.bench.experiments import EXPERIMENTS

        expected = {f"fig8{c}" for c in "abcdefghijkl"} | {"summary"}
        assert set(EXPERIMENTS) == expected

    def test_tiny_scale_run(self):
        """One experiment end-to-end at tiny scale produces a table with
        the right columns, every join on the id path the engine serves
        (views materialized on the frozen snapshot), none on node keys."""
        from repro.bench.experiments import exp_fig8d

        workloads.clear_cache()
        try:
            with matchjoin_metrics() as count:
                table = exp_fig8d(scale=0.1)
                assert count("total", "ids") > 0
        finally:
            workloads.clear_cache()
        assert table.headers[0] == "|V|"
        assert len(table.rows) == 8
        for row in table.rows:
            assert all(value >= 0 for value in row[1:])

    def test_run_all_cli_unknown_experiment(self):
        from repro.bench.run_all import main

        with pytest.raises(SystemExit):
            main(["--only", "nonsense"])

    def test_run_all_writes_output(self, tmp_path, capsys):
        from repro.bench.run_all import main

        workloads.clear_cache()
        out = tmp_path / "results.md"
        try:
            rc = main(["--only", "fig8g", "--scale", "0.1", "--chart",
                       "--out", str(out)])
        finally:
            workloads.clear_cache()
        assert rc == 0
        text = out.read_text()
        assert "Fig. 8(g)" in text
        printed = capsys.readouterr().out
        assert "contain QDAG" in printed
        assert "|#" in printed  # the ASCII chart rendered


class TestAsciiChart:
    def test_chart_renders_bars(self):
        from repro.bench.reporting import ascii_chart

        t = Table("Fig. Z", "demo", ["x", "a (s)", "b (s)"])
        t.add_row("p1", 1.0, 0.5)
        t.add_row("p2", 2.0, 1.0)
        chart = ascii_chart(t, width=10)
        assert "Fig. Z" in chart
        lines = [l for l in chart.splitlines() if "|" in l]
        assert len(lines) == 4
        # The 2.0 bar must be full width.
        assert "#" * 10 in chart

    def test_chart_skips_non_numeric(self):
        from repro.bench.reporting import ascii_chart

        t = Table("Fig. Z", "demo", ["x", "name"])
        t.add_row("p1", "hello")
        assert "no numeric series" in ascii_chart(t)

    def test_chart_all_zero(self):
        from repro.bench.reporting import ascii_chart

        t = Table("Fig. Z", "demo", ["x", "a (s)"])
        t.add_row("p1", 0.0)
        assert "all-zero" in ascii_chart(t)
