"""Planning as plain functions of a *planning state*.

The paper's pipeline (Section II-B) decides ``Q ⊑ V`` (Theorem 3) and
selects views (Theorems 5/6) as functions of ``(Qs, V, V(G))``: no
engine, no lock, no data graph.  This module is those two stages, over
the :class:`PlanningState` interface -- the live
:class:`~repro.engine.catalog.Catalog` (its owner holds the catalog
lock around a plan) or an immutable
:class:`~repro.engine.catalog.EngineCheckpoint` (any thread, no lock:
the serving layer plans each request on the epoch it pinned) -- plus
the containment memo and, for priced modes, the cost model, which lock
themselves.  The ``fixed`` planner lives here; the priced modes are in
:mod:`repro.engine.pricing`, imported by the first plan that needs them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.containment import (
    SELECTIONS,
    Containment,
    merge_view_matches,
    selector,
)
from repro.engine.plan import (
    DIRECT,
    MATCHJOIN,
    PLANNER_FIXED,
    REASON_ISOLATED_NODES,
    REASON_NOT_CONTAINED,
    REASON_UNMATERIALIZED,
    QueryPlan,
    pattern_key,
)
from repro.errors import NotContainedError, NotMaterializedError
from repro.graph.pattern import BoundedPattern, Pattern


class PlanningState:
    """What planning may read, and nothing else.  Six reads make a plan:

    * ``definitions`` -- the view definitions ``V`` (iterable, sized)
      with ``definitions_version``, the stamp decisions are memoized by;
    * ``extension_size(name)`` -- ``|V(G)|`` of one view, ``None`` when
      the extension is missing or stale;
    * ``can_materialize`` -- whether a missing extension can be built
      on demand (a live catalog with a graph; never a checkpoint);
    * ``graph_units()`` -- ``|G|`` in cost-model work units;
    * ``direct_units(query)`` -- the selectivity-aware work estimate of
      evaluating a query directly;
    * :meth:`key_material` -- the version stamps an answer depends on,
      derived *here*, once for every kind of state, from
      ``view_version(name)`` and ``graph_version`` (``None``: no graph).

    ``snapshot_kind`` (which backend evaluates) rides along for records.
    """

    @property
    def has_graph(self) -> bool:
        """Whether direct (and hybrid) evaluation has a ``G`` to run on."""
        return self.graph_version is not None

    def key_material(self, strategy: str, views: Tuple[str, ...]) -> Tuple:
        """What an answer depends on: per-view version stamps for a
        MatchJoin plan, the graph's mutation version for a direct one,
        and both for a hybrid plan (it reads both).  Equal stamps
        always denote equal extension state, so answers keyed this way
        stay correct across epochs."""
        if strategy == DIRECT:
            return ("G", self._graph_stamp())
        stamps = tuple(map(self.view_version, views))
        if strategy == MATCHJOIN:
            return ("V", stamps)
        return ("H", stamps, self._graph_stamp())

    def _graph_stamp(self) -> int:
        version = self.graph_version
        return version if version is not None else -1

    def answer_key(self, plan: QueryPlan) -> Tuple:
        """``plan``'s answer-cache key *on this state*, whose stamps may
        have moved since the plan was made."""
        return plan.cache_key[:2] + (
            self.definitions_version,
            self.key_material(plan.strategy, plan.views_used),
        )


def plan_query(
    state: PlanningState,
    query: Pattern,
    selection: Optional[str] = None,
    mode: str = PLANNER_FIXED,
    default_selection: str = "minimal",
    memo=None,
    model=None,
) -> QueryPlan:
    """The evaluation plan for ``query`` on ``state``; ``mode`` is one
    of :data:`~repro.engine.plan.PLANNERS`, ``memo`` (optional) caches
    containment decisions, ``model`` prices the non-``fixed`` modes."""
    explicit = selection is not None
    selection = selection or default_selection
    if selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection {selection!r}; expected one of "
            f"{sorted(SELECTIONS)}"
        )
    bounded = isinstance(query, BoundedPattern) or any(
        d.is_bounded for d in state.definitions
    )
    fingerprint = pattern_key(query)
    if mode == PLANNER_FIXED:
        return fixed_plan(state, memo, query, fingerprint, selection, bounded)
    from repro.engine.pricing import Pricing, priced_plan

    pricing = Pricing(
        state, memo, model, query, fingerprint, bounded, default_selection
    )
    return priced_plan(pricing, mode, selection, explicit)


def containment_of(
    state: PlanningState, memo, query: Pattern, fingerprint,
    selection: str, bounded: bool,
):
    """The (possibly memoized) containment decision for one selection:
    a function of the *definitions* only, so it survives extension
    refreshes.  The memo guards its get/put, never the computation --
    two threads missing on one key both compute, and store equal
    decisions."""
    decision_key = (fingerprint, selection, state.definitions_version)
    containment = memo.get(decision_key) if memo is not None else None
    cached = containment is not None
    if not cached:
        definitions = state.definitions
        if len(definitions):
            containment = selector(selection, bounded)(query, definitions)
        else:
            # An empty catalog covers no edge under any policy; do
            # not load a selection algorithm to find that out.
            containment = merge_view_matches(query, ())
        if memo is not None:
            memo.put(decision_key, containment)
    return containment, cached


def fixed_plan(
    state: PlanningState, memo, query: Pattern, fingerprint,
    selection: str, bounded: bool,
) -> QueryPlan:
    """The binary decision: MatchJoin iff ``Q ⊑ V``, the query has no
    isolated nodes, and every extension λ draws from is fresh or can
    be materialized on demand."""
    containment, cached = containment_of(
        state, memo, query, fingerprint, selection, bounded
    )
    if not containment.holds:
        strategy, reason = DIRECT, REASON_NOT_CONTAINED
    elif query.isolated_nodes():
        strategy, reason = DIRECT, REASON_ISOLATED_NODES
    elif not state.can_materialize and any(
        state.extension_size(name) is None
        for name in containment.views_used()
    ):
        strategy, reason = DIRECT, REASON_UNMATERIALIZED
    else:
        strategy, reason = MATCHJOIN, None
    return finish_plan(
        state, query, fingerprint, bounded, strategy, selection, containment,
        cached, reason, PLANNER_FIXED,
        containment.views_used() if strategy == MATCHJOIN else (),
    )


def finish_plan(
    state: PlanningState, query: Pattern, fingerprint, bounded: bool,
    strategy: str, selection: str, containment: Containment,
    cached: bool, reason: Optional[str], planner: str,
    views_used: Tuple[str, ...] = (), **priced,
) -> QueryPlan:
    """Assemble the plan, stamping its answer key from ``state``: the
    key covers exactly what the plan reads, so an update strands only
    the answers whose inputs actually changed.  ``priced`` are the
    cost fields a priced planner adds."""
    return QueryPlan(
        query=query,
        strategy=strategy,
        selection=selection,
        containment=containment,
        views_used=views_used,
        bounded=bounded,
        cache_key=(
            fingerprint,
            selection,
            state.definitions_version,
            state.key_material(strategy, views_used),
        ),
        containment_cached=cached,
        reason=reason,
        planner=planner,
        **priced,
    )


def require_runnable(state: PlanningState, plan: QueryPlan) -> None:
    """Raise what a plan ``state`` cannot run has always raised: views
    could not answer the query and there is no graph to fall back on."""
    if plan.strategy == MATCHJOIN or state.has_graph:
        return
    if plan.reason == REASON_NOT_CONTAINED:
        raise NotContainedError(plan.containment.uncovered)
    if plan.reason == REASON_UNMATERIALIZED:
        raise NotMaterializedError(
            "extensions missing for views "
            f"{list(plan.containment.views_used())!r} and the "
            "engine has no graph to materialize them from"
        )
    raise ValueError(
        f"plan requires {plan.strategy} evaluation"
        + (f" ({plan.reason})" if plan.reason else "")
        + " but the engine has no data graph"
    )
