"""Tests for MatchJoin (Fig. 2), its optimized engine, and Theorem 1."""

import random

import pytest

from repro.core.containment import contains
from repro.core.matchjoin import match_join, merge_initial_sets
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.errors import (
    NotContainedError,
    NotMaterializedError,
    UnsupportedPatternError,
)
from repro.engine import QueryEngine
from repro.graph import DataGraph, Pattern
from repro.graph.scc import is_dag
from repro.simulation import match
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_graph,
    build_pattern,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
)


def fig3_setup():
    """Fig. 3: graph G, views V1/V2, query Qs (Example 4)."""
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
    v1 = build_pattern(
        {"AI": "AI", "Bio": "Bio", "PM": "PM"}, [("AI", "Bio"), ("PM", "AI")]
    )
    v2 = build_pattern(
        {"DB": "DB", "AI": "AI", "SE": "SE"},
        [("DB", "AI"), ("AI", "SE"), ("SE", "DB")],
    )
    views = ViewSet([ViewDefinition("V1", v1), ViewDefinition("V2", v2)])
    views.materialize(g)
    return g, q, views


class TestExample4:
    def test_fig3_result_table(self):
        """Example 4 checked against the *definitions*, not the printed
        table.

        The conference paper's Example 4 table drops (SE1, DB2) and
        (DB2, AI2), narrating a cascade that would need a parent
        condition.  Plain simulation (Section II-A) and the Fig. 2
        pseudocode (which checks out-edges only) both keep those pairs:
        given the view extensions printed in Fig. 3(b), SE1 -> DB2 ->
        AI2 -> {SE2, Bio1} is self-supporting, so the pairs are in the
        maximum simulation of any graph containing those edges
        (simulation is monotone in edges).  Direct evaluation with
        match() returns exactly the result below, and Theorem 1 demands
        MatchJoin agree with it -- see test_agrees_with_direct_match.
        DESIGN.md records the discrepancy.
        """
        g, q, views = fig3_setup()
        containment = contains(q, views)
        assert containment.holds
        result = match_join(q, containment, views)
        em = result.edge_matches
        assert em[("PM", "AI")] == {("PM1", "AI2")}
        assert em[("AI", "Bio")] == {("AI2", "Bio1")}
        assert em[("DB", "AI")] == {("DB1", "AI2"), ("DB2", "AI2")}
        assert em[("AI", "SE")] == {("AI2", "SE2")}
        assert em[("SE", "DB")] == {("SE1", "DB2"), ("SE2", "DB1")}

    def test_fixpoint_removed_invalid_matches(self):
        """The merged views contain (AI1, SE1), which is not a valid
        match of (AI, SE) -- AI1 has no Bio successor -- and the
        fixpoint must remove it (the sound part of Example 4's
        narrative)."""
        g, q, views = fig3_setup()
        containment = contains(q, views)
        initial = merge_initial_sets(q, containment, views.extensions())
        assert ("AI1", "SE1") in initial[("AI", "SE")]
        result = match_join(q, containment, views)
        assert ("AI1", "SE1") not in result.edge_matches[("AI", "SE")]

    def test_agrees_with_direct_match(self):
        g, q, views = fig3_setup()
        direct = match(q, g)
        result = match_join(q, contains(q, views), views)
        assert result.edge_matches == direct.edge_matches

    def test_naive_engine_agrees(self):
        g, q, views = fig3_setup()
        containment = contains(q, views)
        optimized = match_join(q, containment, views, optimized=True)
        naive = match_join(q, containment, views, optimized=False)
        assert optimized.edge_matches == naive.edge_matches


class TestErrors:
    def test_not_contained_raises(self):
        g, q, views = fig3_setup()
        only_v1 = views.subset(["V1"])
        containment = contains(q, only_v1)
        with pytest.raises(NotContainedError) as err:
            match_join(q, containment, only_v1)
        assert ("DB", "AI") in err.value.uncovered

    def test_missing_extension_raises(self):
        g, q, views = fig3_setup()
        containment = contains(q, views)
        views.drop_extension("V2")
        with pytest.raises(NotMaterializedError):
            match_join(q, containment, views)

    def test_isolated_node_rejected(self):
        g, q, views = fig3_setup()
        q2 = q.copy()
        q2.add_node("lonely", "PM")
        containment = contains(q, views)
        with pytest.raises(UnsupportedPatternError):
            match_join(q2, containment, views)


class TestTheorem1RandomInstances:
    """Whenever Qs ⊑ V, MatchJoin(V(G)) == Match(G) -- on many random
    graphs, views, and queries (the constructive half of Theorem 1)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_view_based_equals_direct(self, seed):
        rng = random.Random(seed)
        g = random_labeled_graph(rng, rng.randint(8, 40), rng.randint(10, 120))
        q = random_pattern(rng, rng.randint(2, 5), rng.randint(2, 8))
        # Views: one subpattern per edge, sometimes merged pairs.
        edges = q.edges()
        views = ViewSet()
        for i, edge in enumerate(edges):
            views.add(ViewDefinition(f"E{i}", q.subpattern([edge])))
        if len(edges) >= 2 and rng.random() < 0.5:
            pair = rng.sample(edges, 2)
            views.add(ViewDefinition("P", q.subpattern(pair)))
        containment = contains(q, views)
        assert containment.holds, "single-edge views must always cover"
        views.materialize(g)
        direct = match(q, g)
        result = match_join(q, containment, views)
        assert result.edge_matches == direct.edge_matches
        naive = match_join(q, containment, views, optimized=False)
        assert naive.edge_matches == direct.edge_matches

    @pytest.mark.parametrize("seed", [3, 11, 17])
    @pytest.mark.parametrize("selection", ["minimal", "minimum"])
    def test_selection_strategies_agree(self, seed, selection):
        rng = random.Random(seed)
        g = random_labeled_graph(rng, 25, 70)
        q = random_pattern(rng, 4, 6)
        views = ViewSet()
        for i, edge in enumerate(q.edges()):
            views.add(ViewDefinition(f"E{i}", q.subpattern([edge])))
        select = minimal_views if selection == "minimal" else minimum_views
        containment = select(q, views)
        assert containment.holds
        views.materialize(g, names=containment.views_used())
        direct = match(q, g)
        result = match_join(q, containment, views)
        assert result.edge_matches == direct.edge_matches


class TestSelfLoopPatterns:
    def test_self_loop_through_pipeline(self):
        """Pattern self-loops (u, u) work in Match, both MatchJoin
        engines, and containment."""
        g = build_graph({1: "A", 2: "A", 3: "A"}, [(1, 1), (1, 2), (2, 3)])
        q = Pattern()
        q.add_node("a", "A")
        q.add_edge("a", "a")
        direct = match(q, g)
        assert direct.edge_matches == {("a", "a"): {(1, 1)}}
        views = ViewSet([ViewDefinition("V", q.copy())])
        views.materialize(g)
        containment = contains(q, views)
        assert containment.holds
        for optimized in (True, False):
            result = match_join(q, containment, views, optimized=optimized)
            assert result.edge_matches == direct.edge_matches

    def test_self_loop_no_match(self):
        g = build_graph({1: "A", 2: "A"}, [(1, 2)])
        q = Pattern()
        q.add_node("a", "A")
        q.add_edge("a", "a")
        assert not match(q, g)


class TestNoMatchPropagation:
    def test_empty_initial_set_returns_empty(self):
        g = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2)])
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
        )
        views = ViewSet(
            [
                ViewDefinition("Vab", q.subpattern([("a", "b")])),
                ViewDefinition("Vbc", q.subpattern([("b", "c")])),
            ]
        )
        views.materialize(g)
        containment = contains(q, views)
        assert containment.holds
        result = match_join(q, containment, views)
        assert not result
        assert not match_join(q, containment, views, optimized=False)

    def test_fixpoint_empties_everything(self):
        # Views individually nonempty, but the join is empty: B node with
        # a C successor exists, and a B node pointed to by A exists, but
        # they are different nodes.
        g = build_graph(
            {1: "A", 2: "B", 3: "B", 4: "C"}, [(1, 2), (3, 4)]
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
        views.materialize(g)
        containment = contains(q, views)
        result = match_join(q, containment, views)
        assert not result
        assert not match(q, g)


class TestKernelSweepCounts:
    """Complexity pins on the kernel, by counting full passes over an
    edge's rows (``repro_matchjoin_sweeps_total``) -- never by timing."""

    @pytest.mark.parametrize("shared_snapshots", [False, True])
    def test_removal_chain_never_rescans_the_rows(self, shared_snapshots):
        """View ``A -> A`` over a path of n A-nodes, query ``a -> a``:
        the fixpoint peels one node per step for n steps.  The edge is
        swept once, grouped once more for the delta counters, and every
        later step costs one decrement."""
        n = 8000
        graph = DataGraph()
        for i in range(n):
            graph.add_node(i, labels="A")
        for i in range(n - 1):
            graph.add_edge(i, i + 1)
        view = build_pattern({"x": "A", "y": "A"}, [("x", "y")])
        query = Pattern()
        query.add_node("a", "A")
        query.add_edge("a", "a")
        views = ViewSet([ViewDefinition("AA", view)])
        # Sharedness follows the executor the engine was built for.
        engine = QueryEngine(
            views,
            graph=graph,
            executor="process" if shared_snapshots else "serial",
        )
        engine.materialize_views(views.names())
        assert (engine.catalog.snapshot_kind == "shared") == shared_snapshots
        with matchjoin_metrics() as count:
            assert not engine.answer(query)
            assert count("total", "ids") == 1
            assert count("sweeps_total", "ids") <= 2

    def test_lemma2_dag_queries_sweep_each_edge_at_most_once(self):
        swept = nonempty = 0
        for seed in range(60):
            rng = random.Random(seed)
            graph = random_labeled_graph(rng, 40, 140)
            query = Pattern()
            size = rng.randint(3, 6)
            for i in range(size):
                query.add_node(i, rng.choice("ABC"))
            for i in range(1, size):  # edges run low -> high: a DAG
                query.add_edge(rng.randrange(i), i)
            for _ in range(rng.randint(0, 4)):
                low, high = sorted(rng.sample(range(size), 2))
                query.add_edge(low, high)
            assert is_dag(query)
            views = ViewSet(
                ViewDefinition(f"E{i}", query.subpattern([edge]))
                for i, edge in enumerate(query.edges())
            )
            path = "ids" if seed % 2 else "keys"
            views.materialize(graph.freeze() if path == "ids" else graph)
            containment = contains(query, views)
            with matchjoin_metrics() as count:
                result = match_join(query, containment, views)
                assert count("total", path) == 1
                sweeps = count("sweeps_total", path)
            assert sweeps <= query.num_edges
            assert result.edge_matches == match(query, graph).edge_matches
            swept += sweeps
            nonempty += bool(result)
        assert swept and nonempty

    def test_lemma2_needs_the_rank_order(self):
        """A chain query whose every match set loses pairs: dead ends of
        every length hang off the one full path.  Bottom-up, each edge
        is swept once, after its target's candidates are final; in any
        other order an upper edge is swept, invalidated by the sweep
        below it, and visited again."""
        depth = 6
        graph = DataGraph()
        for length in range(2, depth + 1):  # labels L0 .. L(length-1)
            for level in range(length):
                graph.add_node((length, level), labels=f"L{level}")
                if level:
                    graph.add_edge((length, level - 1), (length, level))
        query = Pattern()
        for level in range(depth):
            query.add_node(level, f"L{level}")
        for level in range(depth - 1):  # top-down: the reverse of rank order
            query.add_edge(level, level + 1)
        views = ViewSet(
            ViewDefinition(f"E{i}", query.subpattern([edge]))
            for i, edge in enumerate(query.edges())
        )
        views.materialize(graph.freeze())
        with matchjoin_metrics() as count:
            result = match_join(query, contains(query, views), views)
            # The lowest edge's targets are all sinks: nothing to sweep.
            assert count("sweeps_total", "ids") == query.num_edges - 1
        assert result.edge_matches == match(query, graph).edge_matches
        assert result.edge_matches[(0, 1)] == {((depth, 0), (depth, 1))}
