"""Tests for the cost-based adaptive planner (ROADMAP item 3).

Pins the plan-reason vocabulary, the
:class:`~repro.engine.cost.CostModel` calibration mechanics (cold-start
ordering, first-sample replacement, EWMA, cross-strategy anchoring),
the label-selective direct-cost pricing, the per-edge λ pruning of
hybrid plans, and -- as a hypothesis property -- that the adaptive
planner's answers always equal forced-direct evaluation across the
dict, compact and sharded backends.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import CostModel, QueryEngine
from repro.engine.cost import (
    BOUNDED_COLD_FACTOR,
    COLD_RATES,
    EWMA_ALPHA,
)
from repro.engine.plan import (
    DIRECT,
    FALLBACK_REASONS,
    HYBRID,
    MATCHJOIN,
    REASON_COST_DIRECT,
    REASON_COST_HYBRID,
    REASON_COST_MATCHJOIN,
    REASON_ISOLATED_NODES,
    REASON_NOT_CONTAINED,
    REASON_UNMATERIALIZED,
)
from repro.views import ViewDefinition, ViewSet

from helpers import (
    build_graph,
    build_pattern,
    random_labeled_graph,
    random_pattern,
)

seeds = st.integers(min_value=0, max_value=10_000)


# ----------------------------------------------------------------------
# Reason vocabulary: the legacy strings must keep meaning what they
# meant (existing PlanChoiceRecord consumers match on them).
# ----------------------------------------------------------------------
class TestReasons:
    def test_reason_strings_pinned(self):
        assert REASON_NOT_CONTAINED == "not-contained"
        assert REASON_ISOLATED_NODES == "isolated-nodes"
        assert REASON_COST_DIRECT == "cost-direct"
        assert REASON_COST_MATCHJOIN == "cost-matchjoin"
        assert REASON_COST_HYBRID == "cost-hybrid"
        assert REASON_UNMATERIALIZED == "unmaterialized"
        assert FALLBACK_REASONS == (
            REASON_NOT_CONTAINED,
            REASON_ISOLATED_NODES,
            REASON_UNMATERIALIZED,
        )

    def test_fixed_planner_keeps_legacy_reason_shapes(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        engine = QueryEngine(views, graph=graph)
        plan = engine.plan(build_pattern({"u": "A", "v": "C"}, [("u", "v")]))
        assert plan.strategy == DIRECT
        assert plan.reason == REASON_NOT_CONTAINED


# ----------------------------------------------------------------------
# CostModel calibration mechanics
# ----------------------------------------------------------------------
class TestCostModel:
    def test_cold_rates_encode_the_papers_ordering(self):
        model = CostModel()
        mj = model.rate(MATCHJOIN, False)
        hy = model.rate(HYBRID, False)
        di = model.rate(DIRECT, False)
        assert mj < hy < di
        assert model.rate(DIRECT, True) == di * BOUNDED_COLD_FACTOR

    def test_first_sample_replaces_then_ewma(self):
        model = CostModel()
        model.observe(DIRECT, False, units=1000.0, elapsed=0.01)
        first = 0.01 / 1000.0
        assert model.rate(DIRECT, False) == pytest.approx(first)
        assert model.samples(DIRECT, False) == 1
        model.observe(DIRECT, False, units=1000.0, elapsed=0.02)
        second = 0.02 / 1000.0
        expected = first + EWMA_ALPHA * (second - first)
        assert model.rate(DIRECT, False) == pytest.approx(expected)
        assert model.samples(DIRECT, False) == 2

    def test_cold_rates_anchor_to_observed_strategies(self):
        model = CostModel()
        # Observe direct running 10x slower than its cold default: the
        # still-cold matchjoin rate scales by the same machine factor,
        # so cold and calibrated strategies compare on one scale.
        model.observe(
            DIRECT, False, units=1.0, elapsed=10.0 * COLD_RATES[DIRECT]
        )
        assert model.rate(MATCHJOIN, False) == pytest.approx(
            10.0 * COLD_RATES[MATCHJOIN]
        )
        # The bounded tier calibrates independently and stays cold.
        assert model.rate(MATCHJOIN, True) == pytest.approx(
            COLD_RATES[MATCHJOIN] * BOUNDED_COLD_FACTOR
        )

    def test_zero_elapsed_is_ignored(self):
        model = CostModel()
        model.observe(DIRECT, False, units=10.0, elapsed=0.0)
        assert model.samples(DIRECT, False) == 0

    def test_snapshot_is_json_shaped(self):
        model = CostModel()
        model.observe(MATCHJOIN, False, units=10.0, elapsed=0.001)
        model.observe(DIRECT, True, units=10.0, elapsed=0.002)
        snap = model.snapshot()
        assert set(snap) == {"matchjoin", "direct+bounded"}
        assert snap["matchjoin"]["samples"] == 1
        assert snap["matchjoin"]["rate"] == pytest.approx(0.0001)


# ----------------------------------------------------------------------
# Label-selective direct pricing
# ----------------------------------------------------------------------
def _bucket_graph():
    nodes = {f"a{i}": "A" for i in range(2)}
    nodes.update({f"b{i}": "B" for i in range(20)})
    edges = [("a0", "a1")] + [
        (f"b{i}", f"b{(i + 1) % 20}") for i in range(20)
    ]
    return build_graph(nodes, edges)


def _direct_candidate(plan):
    matches = [c for c in plan.candidates if c.strategy == DIRECT]
    assert matches, f"no direct candidate in {plan.candidates}"
    return matches[0]


class TestLabelSelectivePricing:
    def test_rare_labels_price_below_common_labels(self):
        graph = _bucket_graph()
        engine = QueryEngine(ViewSet(), graph=graph, planner="adaptive")
        rare = _direct_candidate(
            engine.plan(build_pattern({"u": "A", "v": "A"}, [("u", "v")]))
        )
        common = _direct_candidate(
            engine.plan(build_pattern({"u": "B", "v": "B"}, [("u", "v")]))
        )
        assert rare.units < common.units
        assert rare.estimate < common.estimate

    def test_wildcard_charges_the_full_node_count(self):
        graph = _bucket_graph()
        engine = QueryEngine(ViewSet(), graph=graph, planner="adaptive")
        labelled = _direct_candidate(
            engine.plan(build_pattern({"u": "B", "v": "B"}, [("u", "v")]))
        )
        from repro.graph.conditions import TrueCondition

        wild = _direct_candidate(
            engine.plan(
                build_pattern(
                    {"u": TrueCondition(), "v": TrueCondition()}, [("u", "v")]
                )
            )
        )
        assert wild.units > labelled.units

    @pytest.mark.parametrize("shards", [None, 2])
    def test_selective_label_free_predicate_prices_below_the_graph(self, shards):
        """A predicate without a label used to be charged ``|V|`` per
        node; the attribute column knows how few nodes it selects."""
        from repro.graph import P

        graph = _bucket_graph()
        for i in range(20):
            graph.add_node(f"b{i}", labels="B", attrs={"rank": i})
        engine = QueryEngine(
            ViewSet(), graph=graph, planner="adaptive", shards=shards
        )
        selective = _direct_candidate(
            engine.plan(
                build_pattern(
                    {"u": P("rank") >= 18, "v": P("rank") <= 1}, [("u", "v")]
                )
            )
        )
        labelled = _direct_candidate(
            engine.plan(build_pattern({"u": "B", "v": "B"}, [("u", "v")]))
        )
        assert selective.units < graph.size
        assert selective.units < labelled.units


# ----------------------------------------------------------------------
# Hybrid λ pruning + explain/record agreement
# ----------------------------------------------------------------------
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
    def test_hybrid_candidate_keeps_one_witness_per_edge(self):
        graph, views, query = _overlap_setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        plan = engine.plan(query)
        hybrids = [c for c in plan.candidates if c.strategy == HYBRID]
        assert hybrids, "partially covered query must price a hybrid plan"
        # Two views cover (u, v); the pruned λ keeps exactly one.
        assert len(hybrids[0].views) == 1
        if plan.strategy == HYBRID:
            for refs in plan.containment.mapping.values():
                assert len(refs) == 1

    def test_forced_hybrid_keeps_the_full_lambda(self):
        graph, views, query = _overlap_setup()
        engine = QueryEngine(views, graph=graph, planner="hybrid")
        plan = engine.plan(query)
        assert plan.strategy == HYBRID
        assert set(plan.views_used) == {"V1", "V2"}

    def test_hybrid_answers_match_direct(self):
        graph, views, query = _overlap_setup()
        direct = QueryEngine(views, graph=graph, planner="direct")
        for planner in ("adaptive", "hybrid"):
            engine = QueryEngine(views, graph=graph, planner=planner)
            got = engine.answer(query)
            want = direct.answer(query)
            for edge in query.edges():
                assert got.matches_of(edge) == want.matches_of(edge)

    def test_explain_and_record_agree_on_the_winner(self):
        graph, views, query = _overlap_setup()
        engine = QueryEngine(views, graph=graph, planner="adaptive")
        plan = engine.plan(query)
        text = plan.explain()
        assert "planner  : adaptive" in text
        assert plan.candidates
        winner = plan.winning_candidate()
        assert winner is not None and winner.strategy == plan.strategy
        engine.execute(plan)
        record = engine.plan_log(1)[0]
        assert record.strategy == plan.strategy
        assert record.candidates == plan.candidates
        assert record.cost_estimate == plan.cost_estimate


# ----------------------------------------------------------------------
# Property: adaptive == forced direct, across backends
# ----------------------------------------------------------------------
def _random_setup(seed):
    rng = random.Random(seed)
    graph = random_labeled_graph(rng, rng.randint(5, 25), rng.randint(5, 60))
    definitions = []
    while len(definitions) < rng.randint(1, 5):
        pattern = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
        if pattern.edges():
            definitions.append(
                ViewDefinition(f"V{len(definitions)}", pattern)
            )
    query = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 6))
    return graph, definitions, query


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_adaptive_equals_forced_direct(seed):
    """The adaptive planner may pick matchjoin, hybrid or direct per
    query -- the answers must be indistinguishable from forced direct
    evaluation on every backend: dict-space extensions (materialized
    against the mutable graph up front), compact id-space extensions
    (materialized internally against the frozen snapshot), and the
    sharded pipeline."""
    graph, definitions, query = _random_setup(seed)
    reference = QueryEngine(
        ViewSet(definitions), graph=graph, planner="direct"
    ).answer(query)

    def dict_views():
        views = ViewSet(definitions)
        views.materialize(graph)
        return views

    backends = {
        "dict": (dict_views(), {}),
        "compact": (ViewSet(definitions), {}),
        "sharded": (ViewSet(definitions), dict(shards=2)),
    }
    for name, (views, kwargs) in backends.items():
        engine = QueryEngine(
            views, graph=graph, planner="adaptive", **kwargs
        )
        result = engine.answer(query)
        for edge in query.edges():
            assert result.matches_of(edge) == reference.matches_of(edge), (
                f"{name} backend diverged on {edge}"
            )
