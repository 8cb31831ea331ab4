"""Planner checks on small hand-built inputs.

Pins the reason a not-contained query is planned with, and that a
partially covered query with two views over the same edge is answered
exactly -- by the engine and by the hybrid evaluator -- against direct
evaluation.
"""

from repro.core.rewriting import hybrid_answer
from repro.engine import QueryEngine
from repro.engine.plan import DIRECT, REASON_NOT_CONTAINED
from repro.simulation import match
from repro.views import ViewDefinition, ViewSet

from helpers import build_graph, build_pattern


class TestReasons:
    def test_fixed_planner_keeps_legacy_reason_shapes(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        engine = QueryEngine(views, graph=graph)
        plan = engine.plan(build_pattern({"u": "A", "v": "C"}, [("u", "v")]))
        assert plan.strategy == DIRECT
        assert plan.reason == REASON_NOT_CONTAINED


def _overlap_setup():
    """A graph where one covered edge has two covering views and one
    uncovered edge forces partial rewriting."""
    graph = build_graph(
        {"a1": "A", "b1": "B", "c1": "C"}, [("a1", "b1"), ("b1", "c1")]
    )
    pattern = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
    views = ViewSet(
        [
            ViewDefinition("V1", pattern.copy()),
            ViewDefinition("V2", pattern.copy()),
        ]
    )
    views.materialize(graph)
    query = build_pattern(
        {"u": "A", "v": "B", "w": "C"}, [("u", "v"), ("v", "w")]
    )
    return graph, views, query


class TestHybridPruning:
    def test_hybrid_answers_match_direct(self):
        graph, views, query = _overlap_setup()
        want = match(query, graph)
        got = QueryEngine(views, graph=graph).answer(query)
        hybrid = hybrid_answer(query, views, graph)
        for edge in query.edges():
            assert got.matches_of(edge) == want.matches_of(edge)
            assert hybrid.matches_of(edge) == want.matches_of(edge)
