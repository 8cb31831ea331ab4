"""Tests for dual and strong simulation, and dual view answering."""

import random

import pytest

from repro.core.dual import (
    dual_contains,
    dual_match_join,
    dual_view_match,
    materialize_dual,
)
from repro.simulation import dual_match, match, strong_match
from repro.simulation.strong import ball, pattern_diameter
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_graph,
    build_pattern,
    random_labeled_graph,
    random_pattern,
    reference_edge_matches,
    reference_simulation,
)


class TestDualSimulation:
    def test_parent_condition_enforced(self):
        # B node without an A-parent fails dual (but passes plain) sim.
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2)])
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        plain = match(q, g)
        dual = dual_match(q, g)
        assert plain.node_matches["b"] == {2, 3}
        assert dual.node_matches["b"] == {2}

    def test_dual_subset_of_plain(self):
        rng = random.Random(1)
        for _ in range(10):
            g = random_labeled_graph(rng, 20, 50)
            q = random_pattern(rng, 3, 4)
            plain = match(q, g)
            dual = dual_match(q, g)
            if not dual:
                continue
            assert plain
            for u in q.nodes():
                assert dual.node_matches[u] <= plain.node_matches[u]
            for e in q.edges():
                assert dual.edge_matches[e] <= plain.edge_matches[e]

    def test_paper_fig3_dual_gives_example4_table(self):
        """Under *dual* simulation the Fig. 3 narrative of Example 4 is
        exactly right: the parent cascade removes (SE1,DB2), (DB2,AI2).
        (See DESIGN.md's Example 4 erratum.)"""
        g = build_graph(
            {
                "PM1": "PM", "DB1": "DB", "DB2": "DB", "AI1": "AI", "AI2": "AI",
                "SE1": "SE", "SE2": "SE", "Bio1": "Bio",
            },
            [
                ("PM1", "AI2"), ("DB1", "AI2"), ("DB2", "AI2"),
                ("AI1", "SE1"), ("AI2", "SE2"), ("SE1", "DB2"), ("SE2", "DB1"),
                ("AI2", "Bio1"),
            ],
        )
        q = build_pattern(
            {"PM": "PM", "AI": "AI", "DB": "DB", "SE": "SE", "Bio": "Bio"},
            [("PM", "AI"), ("AI", "Bio"), ("DB", "AI"), ("AI", "SE"), ("SE", "DB")],
        )
        result = dual_match(q, g)
        em = result.edge_matches
        assert em[("DB", "AI")] == {("DB1", "AI2")}
        assert em[("SE", "DB")] == {("SE2", "DB1")}
        assert em[("AI", "SE")] == {("AI2", "SE2")}

    def test_no_match(self):
        g = build_graph({1: "A"}, [])
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        assert not dual_match(q, g)


class TestDualReference:
    """``dual_match`` and ``dual_match_join`` run the same dict fixpoint,
    so each is held to the naive reference instead of to the other."""

    @pytest.mark.parametrize("seed", range(40))
    def test_match_and_join_equal_the_reference(self, seed):
        rng = random.Random(seed + 900)
        g = random_labeled_graph(rng, rng.randint(4, 25), rng.randint(3, 70))
        q = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 6))
        for u in list(q.nodes()):
            if rng.random() < 0.3:
                q.add_edge(u, u)
        expected = reference_simulation(q, g, parents=True)
        views = ViewSet(
            [
                ViewDefinition(f"E{i}", q.subpattern([edge]))
                for i, edge in enumerate(q.edges())
            ]
        )
        containment = dual_contains(q, views)
        for graph in (g, g.freeze()):
            for definition in views:
                views.set_extension(materialize_dual(definition, graph))
            for result in (
                dual_match(q, graph),
                dual_match_join(q, containment, views),
            ):
                if expected is None:
                    assert not result, seed
                    continue
                assert result.node_matches == expected, seed
                assert result.edge_matches == reference_edge_matches(
                    q, g, expected
                ), seed


class TestStrongSimulation:
    def test_diameter(self):
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
        )
        assert pattern_diameter(q) == 2

    def test_ball_radius(self):
        g = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "D"}, [(1, 2), (2, 3), (3, 4)]
        )
        assert ball(g, 1, 1) == {1, 2}
        assert ball(g, 2, 1) == {1, 2, 3}  # undirected radius

    def test_strong_subset_of_dual(self):
        rng = random.Random(3)
        g = random_labeled_graph(rng, 15, 40)
        q = random_pattern(rng, 3, 3)
        dual = dual_match(q, g)
        strong, balls = strong_match(q, g)
        if strong:
            for u in q.nodes():
                assert strong.node_matches[u] <= dual.node_matches[u]

    def test_locality_separates_strong_from_dual(self):
        # Two far-apart halves each carrying half the pattern: dual sim
        # on the whole graph can pair them; strong sim cannot because no
        # ball contains a full match.  Classic Ma et al. style example:
        # a long cycle A->B->A->B...
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        g = build_graph(
            {1: "A", 2: "B", 3: "A", 4: "B"},
            [(1, 2), (2, 3), (3, 4), (4, 1)],
        )
        dual = dual_match(q, g)
        assert dual  # the 4-cycle dual-simulates the 2-cycle
        strong, balls = strong_match(q, g)
        # Ball radius = diameter(q) = 1; no radius-1 ball contains a
        # 2-cycle, so strong simulation finds nothing.
        assert not strong
        assert balls == []

    def test_strong_match_on_true_cycle(self):
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        g = build_graph({1: "A", 2: "B"}, [(1, 2), (2, 1)])
        strong, balls = strong_match(q, g)
        assert strong
        assert strong.node_matches["a"] == {1}


class TestDualViewAnswering:
    def setup(self):
        g = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"},
            [(1, 2), (2, 3), (1, 4)],
        )
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
        )
        views = ViewSet(
            [
                ViewDefinition("Vab", q.subpattern([("a", "b")])),
                ViewDefinition("Vbc", q.subpattern([("b", "c")])),
            ]
        )
        for definition in views:
            views.set_extension(materialize_dual(definition, g))
        return g, q, views

    def test_dual_contains(self):
        g, q, views = self.setup()
        containment = dual_contains(q, views)
        assert containment.holds

    def test_dual_match_join_equals_direct(self):
        g, q, views = self.setup()
        containment = dual_contains(q, views)
        result = dual_match_join(q, containment, views)
        direct = dual_match(q, g)
        assert result.edge_matches == direct.edge_matches

    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances(self, seed):
        rng = random.Random(seed + 300)
        g = random_labeled_graph(rng, rng.randint(8, 30), rng.randint(10, 80))
        q = random_pattern(rng, rng.randint(2, 4), rng.randint(2, 6))
        views = ViewSet()
        for i, edge in enumerate(q.edges()):
            views.add(ViewDefinition(f"E{i}", q.subpattern([edge])))
        containment = dual_contains(q, views)
        assert containment.holds
        for definition in views:
            views.set_extension(materialize_dual(definition, g))
        result = dual_match_join(q, containment, views)
        direct = dual_match(q, g)
        assert result.edge_matches == direct.edge_matches

    def test_plain_extensions_also_converge(self):
        """Plain-simulation extensions over-approximate dual ones; the
        dual fixpoint still converges to the dual answer."""
        g, q, views = self.setup()
        views.materialize(g)  # plain extensions
        containment = dual_contains(q, views)
        result = dual_match_join(q, containment, views)
        assert result.edge_matches == dual_match(q, g).edge_matches
