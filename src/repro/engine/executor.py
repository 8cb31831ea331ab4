"""Batch evaluation: one plan per evaluation, run in the calling thread.

:func:`evaluate` runs a plan against the extensions and snapshot
captured for it; the engine runs a batch's plans one after another
(:func:`run_plans`), the serving layer one plan per reader thread.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.graph.pattern import BoundedPattern
from repro.obs import trace
from repro.simulation.result import MatchResult

if TYPE_CHECKING:
    from repro.engine.plan import QueryPlan
    from repro.graph.digraph import DataGraph
    from repro.views.view import MaterializedView

Extensions = Mapping[str, "MaterializedView"]


def evaluate(
    plan: QueryPlan,
    extensions: Extensions,
    graph: Optional[DataGraph],
) -> MatchResult:
    """Run ``plan`` against the captured extensions and graph.

    Whoever runs a plan has already made sure the extensions it reads
    exist (the engine materializes through its catalog first; a plan
    made on a checkpoint never reads an extension the checkpoint lacks).
    ``graph`` may be a mutable :class:`DataGraph` or a frozen
    :class:`~repro.graph.compact.CompactGraph` -- the engine passes its
    snapshot, so direct evaluation takes the integer fast path.

    Each kernel is imported by the first plan that runs it, so a
    process that only ever evaluates directly never loads MatchJoin."""
    if plan.strategy == "direct":
        if graph is None:
            raise ValueError("direct evaluation requires a data graph")
        if isinstance(plan.query, BoundedPattern):
            from repro.simulation.bounded import bounded_match

            return bounded_match(plan.query, graph)
        from repro.simulation.simulation import match

        return match(plan.query, graph)
    chosen = {name: extensions[name] for name in plan.views_used}
    if plan.bounded:
        from repro.core.bounded.bmatchjoin import bounded_match_join

        query = (
            plan.query
            if isinstance(plan.query, BoundedPattern)
            else plan.query.bounded()
        )
        return bounded_match_join(query, plan.containment, chosen)
    from repro.core.matchjoin import match_join

    return match_join(plan.query, plan.containment, chosen)


def run_plans(
    tasks: Sequence[Tuple[int, QueryPlan]],
    extensions: Extensions,
    graph: Optional[DataGraph],
) -> List[Tuple[int, MatchResult, float]]:
    """Evaluate ``(index, plan)`` tasks in order; returns ``(index,
    result, elapsed seconds)`` per task, each task traced as an
    ``evaluate.task`` span."""
    out = []
    for index, plan in tasks:
        started = perf_counter()
        with trace.span("evaluate.task", index=index, kind=plan.strategy):
            result = evaluate(plan, extensions, graph)
        out.append((index, result, perf_counter() - started))
    return out
