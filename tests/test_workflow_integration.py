"""End-to-end scenario tests tying the subsystems together.

The flagship scenario is the one the paper's conclusion sketches: pick
views for a *workload* of frequent queries, materialize just those,
keep them maintained, and answer every workload query from the cache.
"""

import random

import pytest

from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.minimization import minimize
from repro.core.rewriting import hybrid_answer, partial_answer
from repro.simulation import match
from repro.views import Delta, ViewSet
from repro.views.maintenance import IncrementalViewSet
from repro.views.selection import select_views_for_workload

from helpers import build_graph, build_pattern, random_labeled_graph


def org_graph(seed=2):
    rng = random.Random(seed)
    g = random_labeled_graph(rng, 400, 1400, labels="ABCDE")
    return g


def workload():
    q1 = build_pattern(
        {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
    )
    q2 = build_pattern(
        {"b": "B", "c": "C", "d": "D"}, [("b", "c"), ("c", "d"), ("d", "b")]
    )
    q3 = build_pattern(
        {"a": "A", "b": "B", "e": "E"}, [("a", "b"), ("a", "e")]
    )
    return [q1, q2, q3]


class TestWorkloadToAnswers:
    def test_select_materialize_answer(self):
        graph = org_graph()
        queries = workload()
        selected, per_query = select_views_for_workload(queries)
        selected.materialize(graph)
        for qi, query in enumerate(queries):
            cache = selected.subset(per_query[qi])
            containment = contains(query, cache)
            assert containment.holds
            result = match_join(query, containment, cache)
            assert result.edge_matches == match(query, graph).edge_matches

    def test_selection_then_maintenance(self):
        """The selected cache stays correct under graph churn."""
        graph = org_graph()
        queries = workload()[:2]
        selected, per_query = select_views_for_workload(queries)
        tracked = IncrementalViewSet(selected.definitions(), graph)

        rng = random.Random(7)
        for _ in range(25):
            if rng.random() < 0.5 and graph.num_edges:
                edge = rng.choice(list(graph.edges()))
                tracked.apply_delta(Delta().delete(*edge))
                graph.remove_edge(*edge)  # the dict graph is the mirror
            else:
                a, b = rng.randrange(400), rng.randrange(400)
                if a == b or graph.has_edge(a, b):
                    continue
                tracked.apply_delta(Delta().insert(a, b))
                graph.add_edge(a, b)

        snapshot = ViewSet(selected.definitions())
        for name in snapshot.names():
            snapshot.set_extension(tracked.extension(name))
        for qi, query in enumerate(queries):
            cache = snapshot.subset(per_query[qi])
            containment = contains(query, cache)
            assert containment.holds
            result = match_join(query, containment, cache)
            assert result.edge_matches == match(query, graph).edge_matches


class TestMinimizeThenAnswer:
    def test_minimized_query_through_views(self):
        """Minimize a redundant query, answer the smaller one from
        views, reconstruct the original's answer via the mapping."""
        graph = org_graph()
        query = build_pattern(
            {"a": "A", "b1": "B", "b2": "B", "c": "C"},
            [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c")],
        )
        outcome = minimize(query)
        assert outcome.minimized.num_edges == 2

        views = ViewSet()
        from repro.views import ViewDefinition

        for i, edge in enumerate(outcome.minimized.edges()):
            views.add(ViewDefinition(f"m{i}", outcome.minimized.subpattern([edge])))
        views.materialize(graph)
        containment = contains(outcome.minimized, views)
        assert containment.holds
        small = match_join(outcome.minimized, containment, views)

        full = match(query, graph)
        for edge in query.edges():
            reconstructed = set()
            for target in outcome.mapping[edge]:
                reconstructed |= small.edge_matches[target]
            assert reconstructed == full.edge_matches[edge]


class TestGracefulDegradation:
    def test_partial_then_hybrid_then_full(self):
        """As coverage grows the same interfaces degrade gracefully:
        partial (over-approximate) -> hybrid (exact, some graph access)
        -> MatchJoin (exact, no graph access)."""
        graph = org_graph()
        query = workload()[0]
        from repro.views import ViewDefinition

        edges = query.edges()
        half = ViewSet([ViewDefinition("half", query.subpattern([edges[0]]))])
        half.materialize(graph)

        partial = partial_answer(query, half)
        assert 0 < partial.coverage < 1
        exact = match(query, graph)
        for edge in partial.covered:
            assert exact.edge_matches[edge] <= partial.result.edge_matches[edge]

        hybrid = hybrid_answer(query, half, graph)
        assert hybrid.edge_matches == exact.edge_matches

        full = ViewSet(
            ViewDefinition(f"e{i}", query.subpattern([edge]))
            for i, edge in enumerate(edges)
        )
        full.materialize(graph)
        containment = contains(query, full)
        assert containment.holds
        joined = match_join(query, containment, full)
        assert joined.edge_matches == exact.edge_matches
