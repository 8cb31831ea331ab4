"""Tests for BMatchJoin (Section VI-A; Theorems 8, 9)."""

import random
from functools import partial

import pytest

from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import _filter_bound, bounded_match_join
from repro.core.matchjoin import merge_initial_sets
from repro.errors import NotContainedError
from repro.graph import ANY, BoundedPattern
from repro.simulation import bounded_match
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_bounded,
    build_graph,
    random_labeled_graph,
    random_pattern,
)


def chain_setup():
    """G: A -> x -> B -> C chain; Qb: A -(2)-> B -(1)-> C."""
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
            ),
            ViewDefinition(
                "Vbc", build_bounded({"b": "B", "c": "C"}, [("b", "c", 1)])
            ),
        ]
    )
    views.materialize(g)
    return g, q, views


class TestBasics:
    def test_chain(self):
        g, q, views = chain_setup()
        containment = bounded_contains(q, views)
        assert containment.holds
        result = bounded_match_join(q, containment, views)
        direct = bounded_match(q, g)
        assert result.edge_matches == direct.edge_matches
        assert result.edge_matches[("a", "b")] == {(1, 3)}

    def test_distance_filter_applies(self):
        """A view with a looser bound materializes distant pairs that the
        query edge's own bound must filter out through I(V)."""
        g = build_graph(
            {1: "A", 2: "X", 3: "B", 4: "B"}, [(1, 2), (2, 3), (1, 4)]
        )
        # Pairs (1,4) at distance 1 and (1,3) at distance 2.
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", 1)])
        loose_view = ViewDefinition(
            "Vloose", build_bounded({"a": "A", "b": "B"}, [("a", "b", 3)])
        )
        views = ViewSet([loose_view])
        views.materialize(g)
        assert views.extension("Vloose").pairs_of(("a", "b")) == {(1, 3), (1, 4)}
        containment = bounded_contains(q, views)
        assert containment.holds
        initial = merge_initial_sets(
            q, containment, views.extensions(), partial(_filter_bound, q)
        )
        assert initial[("a", "b")] == {(1, 4)}
        result = bounded_match_join(q, containment, views)
        assert result.edge_matches[("a", "b")] == {(1, 4)}
        assert result.edge_matches == bounded_match(q, g).edge_matches

    def test_star_bound_keeps_all_pairs(self):
        g = build_graph(
            {1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)]
        )
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", ANY)])
        view = ViewDefinition(
            "V", build_bounded({"a": "A", "b": "B"}, [("a", "b", ANY)])
        )
        views = ViewSet([view])
        views.materialize(g)
        containment = bounded_contains(q, views)
        assert containment.holds
        result = bounded_match_join(q, containment, views)
        assert result.edge_matches[("a", "b")] == {(1, 3)}

    def test_type_guard(self):
        g, q, views = chain_setup()
        containment = bounded_contains(q, views)
        with pytest.raises(TypeError):
            bounded_match_join(q.unbounded_pattern(), containment, views)

    def test_not_contained_raises(self):
        g, q, views = chain_setup()
        sub = views.subset(["Vab"])
        containment = bounded_contains(q, sub)
        with pytest.raises(NotContainedError):
            bounded_match_join(q, containment, sub)


class TestExample8ViaViews:
    def test_bounded_fig3_query(self):
        g = build_graph(
            {
                "PM1": "PM", "DB1": "DB", "DB2": "DB", "AI1": "AI", "AI2": "AI",
                "SE1": "SE", "SE2": "SE", "Bio1": "Bio",
            },
            [
                ("PM1", "AI2"), ("DB1", "AI2"), ("DB2", "AI2"),
                ("AI1", "SE1"), ("AI2", "SE2"), ("SE1", "DB2"), ("SE2", "DB1"),
                ("AI2", "Bio1"), ("SE1", "Bio1"), ("PM1", "AI1"),
            ],
        )
        q = BoundedPattern()
        for node, label in [
            ("PM", "PM"), ("AI", "AI"), ("DB", "DB"), ("SE", "SE"), ("Bio", "Bio"),
        ]:
            q.add_node(node, label)
        q.add_edge("PM", "AI", 1)
        q.add_edge("DB", "AI", 1)
        q.add_edge("AI", "SE", 1)
        q.add_edge("SE", "DB", 1)
        q.add_edge("AI", "Bio", 2)
        views = ViewSet(
            [
                ViewDefinition(f"E{i}", q.subpattern([edge]))
                for i, edge in enumerate(q.edges())
            ]
        )
        views.materialize(g)
        containment = bounded_contains(q, views)
        assert containment.holds
        result = bounded_match_join(q, containment, views)
        direct = bounded_match(q, g)
        assert result.edge_matches == direct.edge_matches
        # Example 8's headline fact: (AI1, Bio1) matches through a
        # length-2 path.
        assert ("AI1", "Bio1") in result.edge_matches[("AI", "Bio")]


class TestTheorem8RandomInstances:
    @pytest.mark.parametrize("seed", range(25))
    def test_view_based_equals_direct(self, seed):
        rng = random.Random(seed + 500)
        g = random_labeled_graph(rng, rng.randint(8, 30), rng.randint(10, 90))
        base = random_pattern(rng, rng.randint(2, 4), rng.randint(2, 6))
        q = BoundedPattern()
        for node in base.nodes():
            q.add_node(node, base.condition(node))
        for source, target in base.edges():
            q.add_edge(source, target, rng.choice([1, 2, 3, ANY]))
        views = ViewSet()
        for i, edge in enumerate(q.edges()):
            sub = q.subpattern([edge])
            if rng.random() < 0.3:
                # Loosen some view bounds; containment must still hold
                # and the I(V) filter must compensate.
                bound = sub.bound(edge)
                if bound is not ANY:
                    loose = q.subpattern([edge])
                    loose._bound[edge] = bound + rng.randint(1, 2)
                    sub = loose
            views.add(ViewDefinition(f"E{i}", sub))
        containment = bounded_contains(q, views)
        assert containment.holds
        views.materialize(g)
        direct = bounded_match(q, g)
        result = bounded_match_join(q, containment, views)
        assert result.edge_matches == direct.edge_matches
        naive = bounded_match_join(q, containment, views, optimized=False)
        assert naive.edge_matches == direct.edge_matches
