"""Tests for partial answering and the hybrid evaluator."""

import random

import pytest

from repro.core.rewriting import hybrid_answer, partial_answer
from repro.graph import ANY, BoundedPattern
from repro.simulation import bounded_match, match
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_bounded,
    build_graph,
    build_pattern,
    random_labeled_graph,
    random_pattern,
)


def setup_partial():
    """Query with 3 edges; views cover only (a,b) and (b,c)."""
    g = build_graph(
        {1: "A", 2: "B", 3: "C", 4: "D", 5: "B"},
        [(1, 2), (2, 3), (3, 4), (1, 5)],
    )
    q = build_pattern(
        {"a": "A", "b": "B", "c": "C", "d": "D"},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    views = ViewSet(
        [
            ViewDefinition("Vab", q.subpattern([("a", "b")])),
            ViewDefinition("Vbc", q.subpattern([("b", "c")])),
        ]
    )
    views.materialize(g)
    return g, q, views


class TestPartialAnswer:
    def test_coverage_reporting(self):
        g, q, views = setup_partial()
        partial = partial_answer(q, views)
        assert partial.covered == {("a", "b"), ("b", "c")}
        assert partial.uncovered == {("c", "d")}
        assert partial.coverage == pytest.approx(2 / 3)

    def test_result_overapproximates(self):
        g, q, views = setup_partial()
        partial = partial_answer(q, views)
        full = match(q, g)
        for edge in partial.covered:
            assert full.edge_matches[edge] <= partial.result.edge_matches[edge]

    def test_no_coverage(self):
        g, q, views = setup_partial()
        empty_views = ViewSet(
            [ViewDefinition("zz", build_pattern({"x": "Z", "y": "Z"}, [("x", "y")]))]
        )
        empty_views.materialize(g)
        partial = partial_answer(q, empty_views)
        assert partial.coverage == 0
        assert not partial.result

    def test_full_coverage_equals_matchjoin(self):
        g, q, views = setup_partial()
        views.add(ViewDefinition("Vcd", q.subpattern([("c", "d")])))
        views.materialize(g, names=["Vcd"])
        partial = partial_answer(q, views)
        assert partial.coverage == 1.0
        assert partial.result.edge_matches == match(q, g).edge_matches


class TestHybridAnswer:
    def test_exact_on_partial_coverage(self):
        g, q, views = setup_partial()
        assert hybrid_answer(q, views, g).edge_matches == match(q, g).edge_matches
        # A second view covering (a, b): λ merges both images.
        views.add(ViewDefinition("Vab2", q.subpattern([("a", "b")])))
        views.materialize(g, names=["Vab2"])
        assert hybrid_answer(q, views, g).edge_matches == match(q, g).edge_matches

    def test_exact_with_no_views(self):
        g, q, _ = setup_partial()
        result = hybrid_answer(q, ViewSet(), g)
        assert result.edge_matches == match(q, g).edge_matches

    def test_exact_with_full_views(self):
        g, q, views = setup_partial()
        views.add(ViewDefinition("Vcd", q.subpattern([("c", "d")])))
        views.materialize(g, names=["Vcd"])
        result = hybrid_answer(q, views, g)
        assert result.edge_matches == match(q, g).edge_matches

    @pytest.mark.parametrize("seed", range(10))
    def test_random_partial_coverage(self, seed):
        rng = random.Random(seed + 77)
        g = random_labeled_graph(rng, 25, 70)
        q = random_pattern(rng, 4, 6)
        edges = q.edges()
        covered_count = rng.randint(0, len(edges))
        views = ViewSet()
        for i, edge in enumerate(rng.sample(edges, covered_count)):
            views.add(ViewDefinition(f"E{i}", q.subpattern([edge])))
        views.materialize(g)
        result = hybrid_answer(q, views, g)
        assert result.edge_matches == match(q, g).edge_matches

    def test_bounded_hybrid(self):
        g = build_graph(
            {1: "A", 2: "X", 3: "B", 4: "C"}, [(1, 2), (2, 3), (3, 4)]
        )
        q = build_bounded(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b", 2), ("b", "c", 1)]
        )
        views = ViewSet(
            [
                ViewDefinition(
                    "Vab", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
                )
            ]
        )
        views.materialize(g)
        result = hybrid_answer(q, views, g)
        assert result.edge_matches == bounded_match(q, g).edge_matches

    def test_bounded_hybrid_with_star(self):
        g = build_graph(
            {1: "A", 2: "X", 3: "X", 4: "B"}, [(1, 2), (2, 3), (3, 4)]
        )
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", ANY)])
        result = hybrid_answer(q, ViewSet(), g)
        assert result.edge_matches == bounded_match(q, g).edge_matches
