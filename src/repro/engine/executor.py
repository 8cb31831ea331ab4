"""Batch evaluation: one spec per evaluation, run in the calling thread.

A plan is projected onto an :class:`EvaluationSpec` (:func:`spec_of`)
and run by :func:`evaluate_spec` against the extensions and snapshot
captured for it; the engine runs a batch's specs one after another
(:func:`run_specs`), the serving layer one spec per reader thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.graph.pattern import BoundedPattern, Pattern
from repro.obs import trace
from repro.simulation.result import MatchResult

if TYPE_CHECKING:
    from repro.core.containment import Containment
    from repro.graph.digraph import DataGraph
    from repro.views.view import MaterializedView

Extensions = Mapping[str, "MaterializedView"]


@dataclass(frozen=True)
class EvaluationSpec:
    """A self-contained description of one evaluation.

    ``kind`` is a plan strategy (``"matchjoin"`` or ``"direct"``);
    ``needed`` names the extensions MatchJoin reads; ``bounded``
    engages the Section VI machinery.
    The heavyweight inputs (the extensions and the graph) are *not*
    part of the spec -- they are passed in at evaluation time.
    """

    kind: str
    query: Pattern
    containment: Optional[Containment]
    needed: Tuple[str, ...]
    bounded: bool


def spec_of(plan) -> EvaluationSpec:
    """The spec that evaluates ``plan``.  Purely a projection: whoever
    runs it has already made sure the extensions the plan reads exist
    (the engine materializes through its catalog first; a plan made on
    a checkpoint never reads an extension the checkpoint lacks)."""
    direct = plan.strategy == "direct"
    return EvaluationSpec(
        kind=plan.strategy,
        query=plan.query,
        containment=None if direct else plan.containment,
        needed=plan.views_used,
        bounded=plan.bounded,
    )


def evaluate_spec(
    spec: EvaluationSpec,
    extensions: Extensions,
    graph: Optional[DataGraph],
) -> MatchResult:
    """Run one spec against the captured extensions and graph.

    ``graph`` may be a mutable :class:`DataGraph` or a frozen
    :class:`~repro.graph.compact.CompactGraph` -- the engine passes its
    snapshot, so direct evaluation takes the integer fast path.

    Each kernel is imported by the first spec that runs it, so a
    process that only ever evaluates directly never loads MatchJoin."""
    if spec.kind == "direct":
        if graph is None:
            raise ValueError("direct evaluation requires a data graph")
        if isinstance(spec.query, BoundedPattern):
            from repro.simulation.bounded import bounded_match

            return bounded_match(spec.query, graph)
        from repro.simulation.simulation import match

        return match(spec.query, graph)
    chosen = {name: extensions[name] for name in spec.needed}
    if spec.bounded:
        from repro.core.bounded.bmatchjoin import bounded_match_join

        query = (
            spec.query
            if isinstance(spec.query, BoundedPattern)
            else spec.query.bounded()
        )
        return bounded_match_join(query, spec.containment, chosen)
    from repro.core.matchjoin import match_join

    return match_join(spec.query, spec.containment, chosen)


def run_specs(
    tasks: Sequence[Tuple[int, EvaluationSpec]],
    extensions: Extensions,
    graph: Optional[DataGraph],
) -> List[Tuple[int, MatchResult, float]]:
    """Evaluate ``(index, spec)`` tasks in order; returns ``(index,
    result, elapsed seconds)`` per task, each task traced as an
    ``evaluate.task`` span."""
    out = []
    for index, spec in tasks:
        started = perf_counter()
        with trace.span("evaluate.task", index=index, kind=spec.kind):
            result = evaluate_spec(spec, extensions, graph)
        out.append((index, result, perf_counter() - started))
    return out
