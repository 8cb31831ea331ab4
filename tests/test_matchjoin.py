"""Tests for MatchJoin (Fig. 2), its optimized engine, and Theorem 1."""

import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import (
    bounded_match_join,
    merge_initial_sets_bounded,
)
from repro.core import matchjoin
from repro.core.containment import contains
from repro.core.matchjoin import _fixpoint_naive, match_join, merge_initial_sets
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.errors import (
    NotContainedError,
    NotMaterializedError,
    UnsupportedPatternError,
)
from repro.engine import QueryEngine
from repro.graph import ANY, BoundedPattern, DataGraph, Pattern
from repro.graph.scc import is_dag
from repro.graph.snapshot import SnapshotStore
from repro.simulation import match
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_graph,
    build_pattern,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
    shm_segments,
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
    def test_removal_chain_never_rescans_the_rows(self, shared_snapshots, tmp_path):
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
        # A snapshot mapped back from its file: the engine boots from a
        # saved one.
        if shared_snapshots:
            SnapshotStore.save(tmp_path / "snap", graph)
            engine = QueryEngine(views, snapshot_path=tmp_path / "snap")
        else:
            engine = QueryEngine(views, graph=graph)
        engine.materialize_views(views.names())
        backend = engine.snapshot().flat_store.backend
        assert backend == ("file" if shared_snapshots else "bytes")
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


# ----------------------------------------------------------------------
# The lazy answer: packaged once, on the first read of any set
# ----------------------------------------------------------------------
def built(matches):
    """How many of a result map's sets exist as node-key sets yet."""
    return dict.__len__(matches)


def _read_edges_then_nodes(result):
    return (
        {e: result.edge_matches[e] for e in result.edge_matches},
        {u: result.node_matches[u] for u in result.node_matches},
    )


def _read_nodes_then_edges(result):
    nodes = {u: result.node_matches[u] for u in result.node_matches}
    return {e: result.edge_matches[e] for e in result.edge_matches}, nodes


def _read_sizes_first(result):
    sizes = result.result_size, result.total_node_matches()
    edges, nodes = _read_edges_then_nodes(result)
    assert sizes == (sum(map(len, edges.values())), sum(map(len, nodes.values())))
    return edges, nodes


def _read_pickled(result):
    twin = pickle.loads(pickle.dumps(result))
    assert type(twin.edge_matches) is dict and type(twin.node_matches) is dict
    return twin.edge_matches, twin.node_matches


def _read_by_copies(result):
    # dict's own methods on an unread answer build it first.
    return result.edge_matches.copy(), result.node_matches | {}


def _read_by_two_threads(result):
    seen = []
    start = threading.Barrier(2)

    def reader():
        start.wait(timeout=10)
        seen.append(_read_edges_then_nodes(result))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    (edges, nodes), (edges_again, nodes_again) = seen
    # One packaging pass: both readers hold the very same sets.
    assert all(edges[e] is edges_again[e] for e in edges)
    assert all(nodes[u] is nodes_again[u] for u in nodes)
    return edges, nodes


READ_ORDERS = {
    "edges first": _read_edges_then_nodes,
    "nodes first": _read_nodes_then_edges,
    "result_size first": _read_sizes_first,
    "pickle unread": _read_pickled,
    "dict methods": _read_by_copies,
    "two threads": _read_by_two_threads,
}


def _random_instance(rng, bounded):
    """A random graph, query and per-edge views that contain it."""
    graph = random_labeled_graph(rng, rng.randint(8, 40), rng.randint(10, 120))
    query = random_pattern(rng, rng.randint(2, 5), rng.randint(2, 8))
    if bounded:
        base, query = query, BoundedPattern()
        for node in base.nodes():
            query.add_node(node, base.condition(node))
        for edge in base.edges():
            query.add_edge(*edge, rng.choice([1, 2, ANY]))
    edges = query.edges()
    views = ViewSet(
        ViewDefinition(f"E{i}", query.subpattern([edge]))
        for i, edge in enumerate(edges)
    )
    if len(edges) >= 2 and rng.random() < 0.5:
        views.add(ViewDefinition("P", query.subpattern(rng.sample(edges, 2))))
    return graph, query, views


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bounded=st.booleans(),
    path=st.sampled_from(["ids", "keys"]),
    order=st.sampled_from(sorted(READ_ORDERS)),
)
def test_lazy_answer_equals_the_naive_fixpoint_in_every_read_order(
    seed, bounded, path, order
):
    graph, query, views = _random_instance(random.Random(seed), bounded)
    # Against a snapshot the extensions carry id rows; against the dict
    # graph they are node-key sets only.
    views.materialize(graph.freeze() if path == "ids" else graph)
    if bounded:
        containment = bounded_contains(query, views)
        merged = merge_initial_sets_bounded(query, containment, views.extensions())
        join = bounded_match_join
    else:
        containment = contains(query, views)
        merged = merge_initial_sets(query, containment, views.extensions())
        join = match_join
    assert containment.holds
    expected = _fixpoint_naive(query, merged)
    passes = []
    with matchjoin_metrics() as count, pytest.MonkeyPatch.context() as patch:
        package = matchjoin._package
        patch.setattr(matchjoin, "_package", lambda *a: passes.append(1) or package(*a))
        result = join(query, containment, views)
        assert count("total", path) == 1
        # Answering, truth and the key sets package nothing.
        assert bool(result) == bool(expected)
        assert list(result.edge_matches) == (query.edges() if expected else [])
        assert len(result.node_matches) == len(expected.node_matches)
        assert all(u in result.node_matches for u in expected.node_matches)
        assert built(result.edge_matches) == built(result.node_matches) == 0
        assert not passes
        edges, nodes = READ_ORDERS[order](result)
        assert edges == expected.edge_matches and nodes == expected.node_matches
        assert result == expected and result.result_size == expected.result_size
    # One packaging pass, whoever read first and however often.
    assert len(passes) == bool(expected)


def test_engine_answer_on_a_matchjoin_plan_packages_nothing():
    graph, query, views = _random_instance(random.Random(5), bounded=False)
    engine = QueryEngine(views, graph=graph, answer_cache_size=0)
    engine.materialize_views(views.names())
    result = engine.answer(query)
    assert result.stats.strategy == "matchjoin" and result
    assert built(result.edge_matches) == built(result.node_matches) == 0
    expected = match_join(
        query, contains(query, engine.views), engine.views, optimized=False
    )
    assert expected.edge_matches == match(query, graph).edge_matches
    # One read packages the whole answer, once, and fills its own map;
    # the other map takes its sets off the same pass when first read.
    first = query.edges()[0]
    assert result.edge_matches[first] == expected.edge_matches[first]
    assert built(result.edge_matches) == query.num_edges
    assert built(result.node_matches) == 0
    assert result.node_matches == expected.node_matches
    assert result.edge_matches == expected.edge_matches


def _unread_answers_over_a_shared_snapshot(seed, directory):
    """Two unread answers of an engine that is gone when this returns."""
    graph, query, views = _random_instance(random.Random(seed), bounded=False)
    SnapshotStore.save(directory, graph)
    engine = QueryEngine(views, snapshot_path=directory)
    engine.materialize_views(views.names())
    assert engine.snapshot().flat_store.backend == "file"
    answers = engine.answer(query), engine.answer(query)
    assert all(built(a.edge_matches) == 0 for a in answers)
    return answers, match(query, graph)


def test_unread_answer_over_a_shared_snapshot_leaks_no_segment(tmp_path):
    before = shm_segments()
    (kept, dropped), expected = _unread_answers_over_a_shared_snapshot(
        5, tmp_path / "snap"
    )
    del dropped
    gc.collect()
    # The unread answer keeps what it reads alive, and reads it later.
    assert kept.edge_matches == expected.edge_matches
    del kept
    gc.collect()
    assert shm_segments() <= before
