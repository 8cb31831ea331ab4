"""The priced half of the planner: ``adaptive`` and the forced baselines.

Loaded, with :mod:`repro.engine.cost`, by the first plan whose mode is
not ``"fixed"`` (:func:`repro.engine.planner.plan_query`).  Like the
fixed planner these are functions of a
:class:`~repro.engine.planner.PlanningState`, the containment memo and
the cost model -- no engine, no lock, no data graph.

* ``adaptive`` prices MatchJoin over each selection policy's subset,
  hybrid rewriting over the λ-pruned maximal coverage, and direct
  evaluation, and picks the cheapest feasible candidate;
* ``direct`` / ``hybrid`` force one strategy (the CLI-visible
  baselines): no λ pruning, no comparison -- they are *not* filters on
  ``adaptive``, whose pruning would change their plans.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional

from repro.core.containment import Containment
from repro.engine.cost import EST_MISSING_FRACTION, CandidateCost, CostModel
from repro.engine.plan import (
    DIRECT,
    HYBRID,
    MATCHJOIN,
    PLANNER_ADAPTIVE,
    PLANNER_DIRECT,
    PLANNER_HYBRID,
    REASON_COST_DIRECT,
    REASON_COST_HYBRID,
    REASON_COST_MATCHJOIN,
    REASON_FORCED,
    REASON_ISOLATED_NODES,
    REASON_NOT_CONTAINED,
    REASON_UNMATERIALIZED,
    STRATEGY_PREFERENCE,
    QueryPlan,
)
from repro.engine.planner import PlanningState, containment_of, finish_plan
from repro.graph.pattern import Pattern


class Pricing(NamedTuple):
    """One query being priced: what every step below reads."""

    state: PlanningState
    memo: object
    model: CostModel
    query: Pattern
    fingerprint: tuple
    bounded: bool
    default_selection: str

    def containment(self, selection: str):
        return containment_of(
            self.state, self.memo, self.query, self.fingerprint,
            selection, self.bounded,
        )

    def finish(self, strategy, selection, containment, cached, reason, mode,
               winner: Optional[CandidateCost], candidates) -> QueryPlan:
        priced = {"candidates": tuple(candidates)}
        if winner is not None:
            priced.update(
                views_used=winner.views,
                cost_estimate=winner.estimate,
                cost_units=winner.units,
            )
        return finish_plan(
            self.state, self.query, self.fingerprint, self.bounded, strategy,
            selection, containment, cached, reason, mode, **priced,
        )


def priced_plan(pricing: Pricing, mode: str, selection: str, explicit: bool):
    """Dispatch one non-``fixed`` planner mode."""
    if mode == PLANNER_DIRECT:
        return forced_direct_plan(pricing, selection)
    if mode == PLANNER_HYBRID:
        return forced_hybrid_plan(pricing, selection)
    return adaptive_plan(pricing, selection, explicit)


def forced_direct_plan(pricing: Pricing, selection: str) -> QueryPlan:
    """``planner="direct"``: always evaluate on ``G`` -- and skip the
    containment check entirely, which is precisely what the direct-only
    baseline should (not) pay for."""
    containment = Containment(
        holds=False,
        mapping={},
        uncovered=frozenset(pricing.query.edge_set()),
        view_names=(),
    )
    candidate = direct_candidate(pricing, selection)
    return pricing.finish(
        DIRECT, selection, containment, False, REASON_FORCED,
        PLANNER_DIRECT, candidate, (candidate,),
    )


def forced_hybrid_plan(pricing: Pricing, selection: str) -> QueryPlan:
    """``planner="hybrid"``: partial rewriting wherever applicable
    (maximal coverage via the ``"all"`` selection, full λ -- no
    cost-based pruning; that is the adaptive planner's edge); bounded
    and isolated-node patterns degrade to direct evaluation."""
    if not (pricing.bounded or pricing.query.isolated_nodes()):
        containment, cached = pricing.containment("all")
        candidate = hybrid_candidate(pricing, containment)
        if candidate.feasible:
            return pricing.finish(
                HYBRID, "all", containment, cached, REASON_FORCED,
                PLANNER_HYBRID, candidate, (candidate,),
            )
    return forced_direct_plan(pricing, selection)


def adaptive_plan(pricing: Pricing, selection: str, explicit: bool) -> QueryPlan:
    """Price every applicable strategy and pick the cheapest: MatchJoin
    over each selection policy's view subset (the caller-pinned one
    when a selection was passed explicitly, otherwise the default plus
    ``"minimal"`` and ``"minimum"`` -- Theorems 5/6 pick different
    subsets and neither dominates), hybrid rewriting over the
    :func:`prune_coverage`-d maximal coverage when the query is
    partially covered (Section VIII), and direct evaluation when the
    state has a graph."""
    state, query, bounded = pricing.state, pricing.query, pricing.bounded
    isolated = bool(query.isolated_nodes())
    selections = (
        [selection]
        if explicit
        else dict.fromkeys([pricing.default_selection, "minimal", "minimum"])
    )
    candidates: List[CandidateCost] = []
    decisions = {}  # selection -> (containment, served from the memo)
    for sel in selections:
        decisions[sel] = containment, _ = pricing.containment(sel)
        if containment.holds and not isolated:
            candidates.append(matchjoin_candidate(pricing, sel, containment))
    if state.has_graph:
        candidates.append(direct_candidate(pricing, selection))
        if not bounded and not isolated:
            coverage, cached = pricing.containment("all")
            if 0 < len(coverage.mapping) < len(query.edge_set()):
                pruned = prune_coverage(state, coverage)
                decisions["all"] = pruned, cached
                candidates.append(hybrid_candidate(pricing, pruned))
    feasible = [c for c in candidates if c.feasible]
    # Why views cannot answer it, when they cannot (not-contained
    # first, mirroring the fixed planner): contained and joinable with
    # every MatchJoin candidate infeasible means the state lacks
    # extensions it cannot materialize.
    if not decisions[selection][0].holds:
        fallback = REASON_NOT_CONTAINED
    else:
        fallback = REASON_ISOLATED_NODES if isolated else REASON_UNMATERIALIZED
    if not feasible:
        # No graph either: keep the direct/fallback shape so executing
        # the plan raises what the fixed planner's would.
        return pricing.finish(
            DIRECT, selection, *decisions[selection], fallback,
            PLANNER_ADAPTIVE, None, candidates,
        )
    winner = min(feasible, key=_cheapest)
    explored = explore_candidate(pricing.model, feasible, winner, bounded)
    if explored is not None:
        winner = replace(
            explored,
            note=(explored.note + "; " if explored.note else "") + "explore",
        )
        candidates = [winner if c is explored else c for c in candidates]
    if len(feasible) == 1 and winner.strategy == DIRECT:
        reason = fallback  # no real choice: views cannot answer it
    elif len(feasible) == 1 and winner.strategy == MATCHJOIN:
        reason = None  # contained, nothing else applicable: the fixed shape
    else:
        reason = {
            MATCHJOIN: REASON_COST_MATCHJOIN,
            HYBRID: REASON_COST_HYBRID,
            DIRECT: REASON_COST_DIRECT,
        }[winner.strategy]
    return pricing.finish(
        winner.strategy, winner.selection, *decisions[winner.selection],
        reason, PLANNER_ADAPTIVE, winner, candidates,
    )


def _cheapest(candidate: CandidateCost):
    """Sort key: estimate, ties to the strategy touching less of ``G``."""
    return candidate.estimate, STRATEGY_PREFERENCE.index(candidate.strategy)


def explore_candidate(
    model: CostModel,
    feasible: List[CandidateCost],
    winner: CandidateCost,
    bounded: bool,
) -> Optional[CandidateCost]:
    """One-shot exploration: pick a feasible strategy the cost model
    has never observed (at this bounded tier) over the estimated
    winner, so its *real* rate replaces the cold default.

    Without this the planner only ever observes the strategies it
    picks, and a pessimistic cold default can never be corrected --
    e.g. with non-selective views, MatchJoin's optimistic cold rate
    would win forever even when direct evaluation is measurably
    faster.  Exploration is bounded by the strategy count (each
    strategy is explored at most once, then has samples) and never
    picks a candidate that would materialize views as a side effect --
    whether a cold view is worth materializing is the advisor's
    decision, not the planner's.
    """
    if model.samples(winner.strategy, bounded) == 0:
        return None  # executing the winner IS the exploration
    rivals = [
        c
        for c in feasible
        if c is not winner
        and model.samples(c.strategy, bounded) == 0
        and "unmaterialized" not in c.note
    ]
    return min(rivals, key=_cheapest) if rivals else None


def _candidate(
    pricing: Pricing, strategy: str, label: str, selection: str,
    views=(), extra_units: float = 0.0, feasible: bool = True,
    note: str = "", infeasible_note: str = "",
) -> CandidateCost:
    """Price one strategy reading ``views`` plus ``extra_units`` of
    ``G``.  Fresh extensions contribute their measured sizes; a missing
    (or stale) one its estimated size *plus* a one-shot materialization
    penalty -- unless the state cannot materialize, which makes the
    candidate infeasible."""
    state, model, bounded = pricing.state, pricing.model, pricing.bounded
    graph_units = state.graph_units() if views else 0.0
    units = extra_units
    missing = 0
    for name in views:
        size = state.extension_size(name)
        if size is None:
            missing += 1
            units += EST_MISSING_FRACTION * graph_units
        else:
            units += size
    estimate = warm = model.estimate(strategy, bounded, units)
    if missing:
        estimate += missing * model.materialize_penalty(bounded, graph_units)
        note += (", " if note else "") + f"{missing} view(s) unmaterialized"
        feasible = feasible and state.can_materialize
    return CandidateCost(
        strategy=strategy,
        label=label,
        selection=selection,
        views=tuple(views),
        units=units,
        rate=model.rate(strategy, bounded),
        estimate=estimate,
        warm_estimate=warm,
        feasible=feasible,
        note=note if feasible or not infeasible_note else infeasible_note,
    )


def matchjoin_candidate(pricing: Pricing, sel: str, containment) -> CandidateCost:
    """MatchJoin over ``containment``'s view subset."""
    return _candidate(
        pricing, MATCHJOIN, f"matchjoin[{sel}]", sel, containment.views_used(),
        infeasible_note="no graph to materialize from",
    )


def direct_candidate(pricing: Pricing, selection: str) -> CandidateCost:
    """Direct evaluation: the selectivity-aware volume of ``G``."""
    return _candidate(
        pricing, DIRECT, DIRECT, selection,
        extra_units=pricing.state.direct_units(pricing.query),
        feasible=pricing.state.has_graph, infeasible_note="no data graph",
    )


def hybrid_candidate(pricing: Pricing, coverage) -> CandidateCost:
    """Hybrid rewriting over the covered fragment: extension units for
    the covered edges plus the uncovered fraction of the direct work
    for the edges evaluated on ``G``."""
    views = coverage.views_used()
    total = len(pricing.query.edge_set())
    covered = len(coverage.mapping)
    uncovered_fraction = (total - covered) / total if total else 0.0
    return _candidate(
        pricing, HYBRID, HYBRID, "all", views,
        extra_units=uncovered_fraction
        * pricing.state.direct_units(pricing.query),
        feasible=pricing.state.has_graph and bool(views),
        note=f"coverage {covered}/{total}",
    )


def prune_coverage(state: PlanningState, coverage) -> Containment:
    """Cost-based λ pruning: keep one reference per covered edge.

    Every reference in ``λ(e)`` is individually a superset of the
    edge's true match set (Theorem 1's invariant holds per view
    match), so the merge stays correct with any single one -- and the
    merge volume is what hybrid evaluation pays for.  Keeping the
    reference from the smallest fresh extension (unmaterialized views
    price at their estimated size, so they lose to any materialized
    one) turns "covered by everything, including the big views" into
    "covered by the cheapest witness".  This is a *cost-model*
    decision -- only the adaptive planner does it; the forced
    ``planner="hybrid"`` baseline keeps the full λ, the paper's literal
    maximal-coverage rewriting.
    """
    sizes: Dict[str, float] = {}

    def size_of(name: str) -> float:
        if name not in sizes:
            size = state.extension_size(name)
            sizes[name] = (
                float(size)
                if size is not None
                else EST_MISSING_FRACTION * state.graph_units()
            )
        return sizes[name]

    mapping = {}
    names: List[str] = []
    for edge, refs in coverage.mapping.items():
        best = min(refs, key=lambda ref: (size_of(ref[0]), str(ref[0])))
        mapping[edge] = (best,)
        if best[0] not in names:
            names.append(best[0])
    return Containment(
        holds=coverage.holds,
        mapping=mapping,
        uncovered=coverage.uncovered,
        view_names=tuple(names),
    )
