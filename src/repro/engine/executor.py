"""Batch evaluation: serial and process-pool execution.

Simulation fixpoints are CPU-bound pure-Python loops, so batch
parallelism needs processes (the GIL serializes threads); the serial
executor is the deterministic baseline the pool is tested against.

The process pool ships the shared payload -- the needed view extensions
and (when any plan falls back to direct evaluation) the data graph --
**once per worker** through the pool initializer, instead of once per
task; per-task pickling is then just the query, its λ mapping and the
view names.  Workers evaluate with exactly the same code path as the
serial executor (:func:`evaluate_spec`), so results are identical by
construction and only wall time differs.
"""

from __future__ import annotations

import logging
import os
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.graph.flatbuf import ShipStats
from repro.graph.pattern import BoundedPattern, Pattern
from repro.obs import trace
from repro.obs.trace import SpanRecord
from repro.simulation.result import MatchResult

if TYPE_CHECKING:
    from repro.core.containment import Containment
    from repro.graph.digraph import DataGraph
    from repro.views.view import MaterializedView

log = logging.getLogger(__name__)

Extensions = Mapping[str, "MaterializedView"]

#: Executor kinds accepted by the engine and the CLI.
EXECUTORS = ("serial", "process")


@dataclass(frozen=True)
class EvaluationSpec:
    """A self-contained, picklable description of one evaluation.

    ``kind`` is a plan strategy (``"matchjoin"`` or ``"direct"``);
    ``needed`` names the extensions MatchJoin reads; ``bounded``
    engages the Section VI machinery.
    The heavyweight inputs (the extensions and the graph) are *not*
    part of the spec -- they are resolved against the worker's shared
    payload at evaluation time.
    """

    kind: str
    query: Pattern
    containment: Optional[Containment]
    needed: Tuple[str, ...]
    bounded: bool
    #: Coordinator span id to report worker-side spans under (traced
    #: requests only; ``None`` keeps untraced evaluation span-free).
    trace_id: Optional[str] = None


def spec_of(plan, trace_id: Optional[str] = None) -> EvaluationSpec:
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
        trace_id=trace_id,
    )


def evaluate_spec(
    spec: EvaluationSpec,
    extensions: Extensions,
    graph: Optional[DataGraph],
) -> MatchResult:
    """Run one spec against the shared payload (the single code path
    used by every executor, in-process or not).

    ``graph`` may be a mutable :class:`DataGraph` or a frozen
    :class:`~repro.graph.compact.CompactGraph` -- the engine ships its
    snapshot, so direct evaluation takes the integer fast path and the
    pickled payload for pool workers is the read-optimized form.

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


# ----------------------------------------------------------------------
# Process-pool plumbing (module level so it pickles by reference)
# ----------------------------------------------------------------------
_WORKER_PAYLOAD: Dict[str, object] = {}


def _worker_init(blob: bytes) -> None:
    """Pool initializer: attach the pre-pickled shared payload.

    The payload is serialized **once per batch** by the parent (see
    :func:`run_specs`) and handed to every worker as opaque bytes, so
    the per-worker cost is one ``pickle.loads`` -- which, for
    flat-buffer payloads, just attaches the existing shared-memory
    segments instead of rebuilding dict-of-sets structures.
    """
    extensions, graph = pickle.loads(blob)
    _WORKER_PAYLOAD["extensions"] = extensions
    _WORKER_PAYLOAD["graph"] = graph


TaskResult = Tuple[int, MatchResult, float, int, Optional[SpanRecord]]


def _worker_run(task: Tuple[int, EvaluationSpec]) -> TaskResult:
    """Evaluate one (index, spec) task; returns timing, worker pid and
    -- for traced requests -- the worker-side span record to re-attach
    under the coordinator span named by ``spec.trace_id``."""
    index, spec = task
    extensions = _WORKER_PAYLOAD.get("extensions", {})
    graph = _WORKER_PAYLOAD.get("graph")
    started = perf_counter()
    if spec.trace_id is None:
        result = evaluate_spec(spec, extensions, graph)  # type: ignore[arg-type]
        return index, result, perf_counter() - started, os.getpid(), None
    with trace.remote_span(
        "evaluate.task", spec.trace_id, index=index, kind=spec.kind, pid=os.getpid()
    ) as worker_span:
        result = evaluate_spec(spec, extensions, graph)  # type: ignore[arg-type]
    record = worker_span.to_record(spec.trace_id)
    return index, result, perf_counter() - started, os.getpid(), record


def _adopt_records(results: Sequence[TaskResult]) -> None:
    """Re-attach worker-shipped span records under their coordinator
    parents (matched by the id threaded through the spec; a record whose
    parent is no longer on the active span chain is dropped rather than
    mis-attributed)."""
    records = [record for *_, record in results if record is not None]
    if not records:
        return
    by_id: Dict[str, trace.Span] = {}
    node = trace.current_span()
    while node is not None:
        by_id[node.span_id] = node
        node = node.parent
    for record in records:
        target = by_id.get(record.parent_id or "")
        if target is not None:
            target.adopt(record)
        else:
            log.debug(
                "dropping span record %r: parent %s not on active chain",
                record.name,
                record.parent_id,
            )


def run_specs(
    tasks: Sequence[Tuple[int, EvaluationSpec]],
    extensions: Extensions,
    graph: Optional[DataGraph],
    executor: str = "serial",
    workers: Optional[int] = None,
) -> Tuple[List[TaskResult], ShipStats]:
    """Evaluate ``(index, spec)`` tasks.

    Returns ``(results, ship)`` where results are
    ``(index, result, elapsed seconds, pid, span record)`` tuples (in
    completion order for pools, submission order when serial; the span
    record is ``None`` except for traced process-pool tasks, whose
    worker-side records are also adopted under the live coordinator
    span before returning) and ``ship`` is the batch's
    :class:`ShipStats` (zeros unless a process pool ran).

    ``executor`` is one of :data:`EXECUTORS`; pools degrade gracefully
    to serial execution when there is at most one task or one worker.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    max_workers = 1
    if executor != "serial" and len(tasks) > 1:
        max_workers = workers if workers is not None else (os.cpu_count() or 1)
    if max_workers <= 1:
        pid = os.getpid()
        out: List[TaskResult] = []
        for index, spec in tasks:
            started = perf_counter()
            with trace.span("evaluate.task", index=index, kind=spec.kind):
                result = evaluate_spec(spec, extensions, graph)
            out.append((index, result, perf_counter() - started, pid, None))
        return out, ShipStats()
    max_workers = min(max_workers, len(tasks))
    from concurrent.futures import ProcessPoolExecutor

    # Process pool: ship only the extensions the batch actually needs,
    # serialized exactly once regardless of worker count.
    needed = {name for _, spec in tasks for name in spec.needed}
    payload = {name: extensions[name] for name in needed}
    ship_graph = (
        graph if any(spec.kind == "direct" for _, spec in tasks) else None
    )
    started = perf_counter()
    blob = pickle.dumps((payload, ship_graph), pickle.HIGHEST_PROTOCOL)
    ship = ShipStats(bytes=len(blob), seconds=perf_counter() - started)
    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_worker_init,
        initargs=(blob,),
    ) as pool:
        results = list(pool.map(_worker_run, tasks))
    _adopt_records(results)
    return results, ship
