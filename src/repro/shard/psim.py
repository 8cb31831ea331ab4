"""Partial-evaluation maximum simulation over a sharded graph.

This is the classic distributed-simulation recipe (the setting of
conf_icde_FanWW14 Section VII, where views are cached because ``G`` is
too large to touch per query), reproduced in-process:

1. **Local step** -- every shard runs the one id-space Match kernel
   (:func:`repro.simulation.compact_engine.witness_fixpoint`, the very
   fixpoint ``match`` runs on a whole-graph snapshot) over its own
   snapshot, treating ghost nodes as *assumptions*: a ghost is presumed
   to match a pattern node whenever the coordinator has not (yet)
   refuted it.  Because a shard owns the full out-adjacency of its
   nodes, the local greatest fixpoint is exact relative to those
   assumptions.
2. **Exchange step** -- each local run reports the internal ids it
   pruned; the coordinator translates them through the boundary
   bridges into withdrawn assumptions for exactly the shards ghosting
   those nodes (each id leaves the shrinking simulation once, so every
   withdrawal is unique by construction).
3. **Iterate** -- withdrawn shards re-run *incrementally*: the
   withdrawal batch enters the same counter cascade as any removal, so
   a re-run costs the affected area, not the shard.  Assumptions only
   ever shrink, so the loop reaches a fixpoint in finitely many
   rounds; at that point local results glue into precisely the
   single-machine maximum simulation (the initial assumptions
   over-approximate the true boundary matches, and every removal is
   justified by a violated simulation condition, so the
   greatest-fixpoint invariant is preserved throughout).

Local steps within a round are independent, so they run serially or on
a process pool (:class:`ShardRunner`).  Shard state
is *worker-resident*: process mode pins each shard to a dedicated
worker (the sharded snapshot ships once per worker, mirroring
``repro.engine.executor``), and only withdrawal batches and removal
deltas cross the process boundary per round -- never the counters.
Results decode to original node keys -- or to the sharded graph's
composite global id space for the materialization path
(:mod:`repro.shard.materialize`).
"""

from __future__ import annotations

import logging
import os
import pickle
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.flatbuf import ShipStats
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.obs.trace import SpanRecord
from repro.simulation.compact_engine import (
    FixpointState,
    IdRows,
    Outcome,
    extract,
    no_match,
    witness_fixpoint,
)
from repro.simulation.result import MatchResult

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.shard.sharded import ShardedGraph

log = logging.getLogger(__name__)

PNode = Hashable
Node = Hashable

#: Shard-local simulation: pattern node -> set of *internal* local ids.
LocalSim = Dict[PNode, Set[int]]


@dataclass
class PSimStats:
    """Telemetry of one partial-evaluation run."""

    shards: int = 0
    rounds: int = 0
    local_runs: int = 0
    invalidated: int = 0
    initial_assumptions: int = 0
    per_round_invalidated: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Task plumbing: serial / process execution of local steps
# ----------------------------------------------------------------------
#: Executor kinds accepted by the psim / materialization entry points.
SHARD_EXECUTORS = ("serial", "process")


#: Shard-state store: (session id, shard index) -> state.  Sessions of
#: several patterns may be in flight at once (wave-driven
#: materialization), so the key carries both.
_StateStore = Dict[Tuple[int, int], FixpointState]


def _execute(
    sharded: ShardedGraph, store: _StateStore, task: Tuple
) -> Tuple[int, object]:
    """Evaluate one local task against a sharded graph (the single code
    path used by every executor, in-process or not).

    ``store`` holds the per-(session, shard) fixpoint states, so one
    long-lived runner (and its workers) serves any number of patterns
    -- concurrently, for wave-driven materialization -- without state
    ever crossing back to the coordinator.  Terminal tasks (``edges``,
    ``drop``) evict their session's state.

    A ``sim`` task is one run of the Match kernel under the shard
    contract: ids at or above the shard's own count are its ghosts
    (*assumed*), a kept state re-enters with the coordinator's
    withdrawal batch, and the ids the run pruned go back.  An ``edges``
    task is the kernel's extractor with the shard's local -> composite
    id row: one slice of the final outcome, built shard-side, so the
    coordinator's merge is pure C-level set updates and row appends.
    """
    kind, index, session = task[0], task[1], task[2]
    snapshot = sharded.shard(index)
    key = (session, index)
    if kind == "sim":
        _, _, _, pattern, withdrawn = task
        kept = store.get(key)
        pruned: LocalSim = {}
        state = witness_fixpoint(
            pattern, snapshot, sharded.own_count(index), kept, withdrawn, pruned
        )
        store[key] = state
        sizes = {u: len(ids) for u, ids in state.sim.items()}
        # Ghost candidates of the first run: the initial assumptions.
        assumed = 0
        if kept is None:
            assumed = sum(map(len, state.full.values())) - sum(sizes.values())
        return index, (pruned, sizes, assumed)
    state = store.pop(key, None)
    if kind == "drop":
        return index, None
    if state is None:
        raise RuntimeError(
            f"shard {index} has no state for session {session}; "
            "was the worker restarted mid-evaluation?"
        )
    return index, extract(task[3], snapshot, state, sharded.global_row(index))


# Module level so the process pool pickles them by reference; the
# sharded snapshot ships once per worker through the initializer,
# mirroring repro.engine.executor.  The parent serializes it exactly
# once (ShardRunner.ship records size and wall time) and every pool
# receives the same bytes, so a worker's startup cost is a single
# ``pickle.loads`` -- shared-memory shards attach rather than copy.
# Each worker owns the states of the shards pinned to it.
_WORKER_PAYLOAD: Dict[str, object] = {}


def _worker_init(blob: bytes) -> None:
    _WORKER_PAYLOAD["sharded"] = pickle.loads(blob)
    _WORKER_PAYLOAD["store"] = {}


def _worker_run(
    packed: Tuple[Tuple, Optional[str]]
) -> Tuple[int, object, Optional[SpanRecord]]:
    """Evaluate one task in a pool worker.  A traced request's span id
    rides in with the task; the task is then recorded as a worker-side
    span and shipped home (the coordinator adopts it under that span)."""
    task, trace_id = packed
    sharded = _WORKER_PAYLOAD["sharded"]
    store = _WORKER_PAYLOAD["store"]
    if trace_id is None:
        return (*_execute(sharded, store, task), None)  # type: ignore[arg-type]
    with trace.remote_span(
        "psim.task", trace_id, kind=task[0], shard=task[1], pid=os.getpid()
    ) as worker_span:
        index, payload = _execute(sharded, store, task)  # type: ignore[arg-type]
    return index, payload, worker_span.to_record(trace_id)


class ShardRunner:
    """Executes batches of shard-local tasks for one sharded graph.

    Pools are created once and reused across every round and every view
    materialized through the runner -- the expensive part of process
    parallelism (worker startup, shipping the sharded snapshot) is paid
    a single time.  Process mode pins every shard to a dedicated
    single-worker pool (shard ``i`` always lands on pool ``i mod
    workers``), so each worker keeps its shards' fixpoint states
    resident and per-round traffic is just withdrawal batches out,
    removal deltas back.  Use as a context manager, or call
    :meth:`close`.
    """

    def __init__(
        self,
        sharded: ShardedGraph,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> None:
        if executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of "
                f"{SHARD_EXECUTORS}"
            )
        self.sharded = sharded
        self.executor = executor
        self.workers = workers if workers is not None else max(
            1, min(sharded.num_shards, os.cpu_count() or 1)
        )
        self._session = 0
        self._store: _StateStore = {}
        self._pools: List[ProcessPoolExecutor] = []
        #: ShipStats of the one-time snapshot serialization (zeros for
        #: in-process runners: nothing ships).
        self.ship = ShipStats()
        if executor == "process" and self.workers > 1:
            # Shared-memory shards pay off exactly here: workers attach
            # segments instead of unpickling per-shard adjacency.
            from concurrent.futures import ProcessPoolExecutor

            sharded.share()
            started = perf_counter()
            blob = pickle.dumps(sharded, pickle.HIGHEST_PROTOCOL)
            self.ship = ShipStats(
                bytes=len(blob), seconds=perf_counter() - started
            )
            self._pools = [
                ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_worker_init,
                    initargs=(blob,),
                )
                for _ in range(min(self.workers, sharded.num_shards))
            ]

    def new_session(self) -> int:
        """A fresh session id for one pattern evaluation.  Several
        sessions may be in flight at once; each evaluation ends with a
        terminal task per shard (``edges`` / ``drop``) that evicts its
        worker-resident state."""
        self._session += 1
        return self._session

    def map(self, tasks: Sequence[Tuple]) -> List[Tuple[int, object]]:
        """Run local tasks, returning ``(shard index, result)`` pairs.

        When the calling context is traced, per-task spans land under
        the caller's span: in-process tasks nest directly, while
        process pools thread the span id out with each task and adopt
        the returned worker-side records."""
        parent = trace.current_span()
        if self._pools:
            trace_id = parent.span_id if parent is not None else None
            futures = [
                self._pools[task[1] % len(self._pools)].submit(
                    _worker_run, (task, trace_id)
                )
                for task in tasks
            ]
            out: List[Tuple[int, object]] = []
            for future in futures:
                index, payload, record = future.result()
                if record is not None:
                    parent.adopt(record)
                out.append((index, payload))
            return out
        sharded = self.sharded
        store = self._store
        out = []
        for task in tasks:
            with trace.span("psim.task", kind=task[0], shard=task[1]):
                out.append(_execute(sharded, store, task))
        return out

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown()
        self._pools = []
        self._store.clear()

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resolve_runner(
    sharded: ShardedGraph,
    runner: Optional[ShardRunner],
    executor: str,
    workers: Optional[int],
) -> Tuple[ShardRunner, bool]:
    """An existing runner (not owned) or a fresh one (owned by caller)."""
    if runner is not None:
        if runner.sharded is not sharded:
            raise ValueError("runner was built for a different ShardedGraph")
        return runner, False
    return ShardRunner(sharded, executor=executor, workers=workers), True


# ----------------------------------------------------------------------
# The coordinator: assumption exchange to the global fixpoint
# ----------------------------------------------------------------------
class _Evaluation:
    """State machine driving one pattern to its global fixpoint.

    Phases: ``sim`` (rounds of local fixpoints + removal-driven
    exchange), then ``edges`` (extract + merge the outcome slices) or
    ``drop`` (failed match; evict worker states), then ``done`` with
    the ``outcome`` set: the result plus the composite-id edge-match
    rows -- the form extension payloads store -- or the failed match.
    Several evaluations can progress through the same
    :class:`ShardRunner` in shared waves (:func:`_drive`), which is
    what keeps pool round-trips -- the dominant process-mode cost --
    proportional to the number of *rounds*, not patterns x rounds.

    Round 1 runs every shard with label-index seeding (assumptions
    start as each shard's condition-matching ghosts -- the same
    optimistic superset the owner seeds from, so both sides agree on
    round zero).  The exchange is *removal-driven*: each local run
    reports the internal ids it pruned, the coordinator translates
    them through the boundary bridges into withdrawal batches, and
    only the shards that lost an assumption re-run -- continuing from
    their worker-resident state, so a re-run is a decrement cascade
    over the affected area.  Every id leaves its (shrinking)
    simulation set exactly once, so each translated withdrawal is
    unique by construction -- the coordinator needs no view of the
    assumption sets at all.  Work per round is therefore proportional
    to the invalidated area, not to the boundary size.
    """

    __slots__ = (
        "pattern",
        "sharded",
        "session",
        "stats",
        "phase",
        "sizes",
        "withdrawn",
        "active",
        "_incoming",
        "outcome",
    )

    def __init__(self, pattern, sharded: ShardedGraph, session: int) -> None:
        k = sharded.num_shards
        self.pattern = pattern
        self.sharded = sharded
        self.session = session
        self.stats = PSimStats(shards=k)
        self.phase = "sim"
        self.sizes: List[Optional[Dict[PNode, int]]] = [None] * k
        self.withdrawn: List[Optional[Dict[PNode, Set[int]]]] = [None] * k
        self.active: List[int] = list(range(k))
        self._incoming: List[Tuple[int, object]] = []
        self.outcome: Outcome = no_match()

    # -- wave protocol -------------------------------------------------
    def tasks(self) -> List[Tuple]:
        """This wave's tasks (empty once done)."""
        if self.phase == "sim":
            self.stats.rounds += 1
            self.stats.local_runs += len(self.active)
            return [
                ("sim", i, self.session, self.pattern, self.withdrawn[i])
                for i in self.active
            ]
        if self.phase == "edges":
            return [
                ("edges", i, self.session, self.pattern)
                for i in range(self.sharded.num_shards)
            ]
        if self.phase == "drop":
            return self.drop_tasks()
        return []

    def drop_tasks(self) -> List[Tuple]:
        """Tasks evicting this session's worker-resident states."""
        return [
            ("drop", i, self.session) for i in range(self.sharded.num_shards)
        ]

    def absorb(self, index: int, payload: object) -> None:
        self._incoming.append((index, payload))

    def end_wave(self) -> None:
        incoming, self._incoming = self._incoming, []
        if self.phase == "sim":
            self._end_sim_wave(incoming)
            return
        if self.phase == "edges":
            self._merge_edges(incoming)
        # else: drop acknowledgements
        self.phase = "done"

    # -- internals -----------------------------------------------------
    def _end_sim_wave(self, incoming: List[Tuple[int, object]]) -> None:
        sharded = self.sharded
        withdrawn = self.withdrawn
        deltas: List[Tuple[int, LocalSim]] = []
        for index, payload in incoming:
            removed, shard_sizes, assumed = payload  # type: ignore[misc]
            self.sizes[index] = shard_sizes
            withdrawn[index] = None
            deltas.append((index, removed))
            self.stats.initial_assumptions += assumed
        # Exchange: every pruned internal id refutes the corresponding
        # ghost assumption in the shards that hold one (pre-resolved
        # through the boundary bridges, so a removal batch meets each
        # holder in set-at-a-time operations); refuted ghosts become
        # the holder's next withdrawal batch.
        rerun: Set[int] = set()
        round_invalidated = 0
        for index, removed in deltas:
            if not removed:
                continue
            bridges = sharded.bridges(index)
            for u, ids in removed.items():
                for holder, translate in bridges:
                    common = translate.keys() & ids
                    if not common:
                        continue
                    hit = set(map(translate.__getitem__, common))
                    batches = withdrawn[holder]
                    if batches is None:
                        withdrawn[holder] = {u: hit}
                    else:
                        batch = batches.get(u)
                        if batch is None:
                            batches[u] = hit
                        else:
                            batch |= hit
                    rerun.add(holder)
                    round_invalidated += len(hit)
        self.stats.per_round_invalidated.append(round_invalidated)
        self.stats.invalidated += round_invalidated
        if rerun:
            self.active = sorted(rerun)
            return
        # Global fixpoint reached: extract, or clean up a failed match.
        if any(
            not any(shard_sizes[u] for shard_sizes in self.sizes)  # type: ignore[index]
            for u in self.pattern.nodes()
        ):
            self.phase = "drop"
        else:
            self.phase = "edges"

    def _merge_edges(self, incoming: List[Tuple[int, object]]) -> None:
        # Every slice covers every pattern node and edge; the first is
        # adopted and the rest merge into it in place.  A source id is
        # owned by exactly one shard, so id rows merge by concatenation.
        (_, (result, id_rows, _)), *rest = incoming  # type: ignore[misc]
        for _, (local, local_rows, _) in rest:  # type: ignore[misc]
            for edge, (src, tgt) in local_rows.items():
                merged_src, merged_tgt = id_rows[edge]
                merged_src.extend(src)
                merged_tgt.extend(tgt)
            for edge, pairs in local.edge_matches.items():
                result.edge_matches[edge] |= pairs
            for u, nodes in local.node_matches.items():
                result.node_matches[u] |= nodes
        self.outcome = result, id_rows, None


def _meter_psim(stats: PSimStats) -> None:
    """One registry write per finished evaluation."""
    reg = get_registry()
    reg.counter("repro_psim_rounds_total").inc(stats.rounds)
    reg.counter("repro_psim_local_runs_total").inc(stats.local_runs)
    reg.counter("repro_psim_invalidated_total").inc(stats.invalidated)


def _drive(evaluations: List[_Evaluation], runner: ShardRunner) -> None:
    """Run evaluations to completion in shared waves.

    Each wave gathers every active evaluation's tasks into a single
    ``runner.map`` call: one pool round-trip per wave regardless of how
    many patterns are in flight, and slow shards of one pattern overlap
    with other patterns' work instead of idling the pool.  If a wave
    raises, every unfinished session is dropped from the (possibly
    caller-owned) runner before the error propagates, so no fixpoint
    state outlives its evaluation.
    """
    remaining = [e for e in evaluations if e.phase != "done"]
    waves = 0
    total_tasks = 0
    try:
        while remaining:
            tasks: List[Tuple] = []
            owners: List[_Evaluation] = []
            for evaluation in remaining:
                for task in evaluation.tasks():
                    tasks.append(task)
                    owners.append(evaluation)
            waves += 1
            total_tasks += len(tasks)
            with trace.span("psim.wave", wave=waves, tasks=len(tasks)):
                results = runner.map(tasks)
            for owner, (index, payload) in zip(owners, results):
                owner.absorb(index, payload)
            for evaluation in remaining:
                evaluation.end_wave()
            remaining = [e for e in remaining if e.phase != "done"]
    except BaseException:
        try:
            runner.map([t for e in remaining for t in e.drop_tasks()])
        except Exception:
            log.warning(
                "could not drop shard states after a failed wave", exc_info=True
            )
        raise
    # One registry write per drive, never per task (overhead budget).
    reg = get_registry()
    reg.counter("repro_psim_waves_total").inc(waves)
    reg.counter("repro_psim_tasks_total").inc(total_tasks)


def sharded_match_with_ids(
    pattern,
    sharded: ShardedGraph,
    executor: str = "serial",
    workers: Optional[int] = None,
    runner: Optional[ShardRunner] = None,
    stats_out: Optional[List[PSimStats]] = None,
) -> Outcome:
    """Evaluate ``Qs`` on a sharded graph: the outcome in the sharded
    graph's composite global-id space, its edge-match rows built
    shard-side and concatenated."""
    runner, owned = _resolve_runner(sharded, runner, executor, workers)
    try:
        evaluation = _Evaluation(pattern, sharded, runner.new_session())
        with trace.span("psim", shards=sharded.num_shards) as psim_span:
            _drive([evaluation], runner)
            if psim_span is not None:
                psim_span.set(
                    rounds=evaluation.stats.rounds,
                    invalidated=evaluation.stats.invalidated,
                )
        _meter_psim(evaluation.stats)
    finally:
        if owned:
            runner.close()
    if stats_out is not None:
        stats_out.append(evaluation.stats)
    return evaluation.outcome


def sharded_match(
    pattern,
    sharded: ShardedGraph,
    executor: str = "serial",
    workers: Optional[int] = None,
    runner: Optional[ShardRunner] = None,
) -> MatchResult:
    """Evaluate ``Qs`` on a sharded graph (the paper's Match, via
    partial evaluation); equal to ``match`` on the unsharded graph."""
    return sharded_match_with_ids(
        pattern, sharded, executor=executor, workers=workers, runner=runner
    )[0]


def partial_max_simulation(
    pattern,
    sharded: ShardedGraph,
    executor: str = "serial",
    workers: Optional[int] = None,
    runner: Optional[ShardRunner] = None,
) -> Optional[Dict[PNode, Set[Node]]]:
    """The node matches of :func:`sharded_match` -- equal to
    single-machine
    :func:`~repro.simulation.simulation.maximum_simulation` on the
    unsharded graph -- or ``None`` when the pattern has no match."""
    result = sharded_match(
        pattern, sharded, executor=executor, workers=workers, runner=runner
    )
    return result.node_matches or None


# ----------------------------------------------------------------------
# Bounded patterns over a sharded graph
# ----------------------------------------------------------------------
def sharded_bounded_match_with_ids(
    pattern, sharded: ShardedGraph, with_distances: bool = False
) -> Outcome:
    """Evaluate ``Qb`` on a sharded graph (the paper's BMatch).

    Bounded simulation refines against *path* reachability, which does
    not decompose into per-shard local fixpoints the way edge-witness
    simulation does (a single bounded path may thread through several
    shards).  The engine therefore runs the generic refinement over the
    sharded graph's composite read API -- candidate seeding from the
    composite label index, and every forward distance question answered
    by the per-shard bounded BFS with ghost-distance stitching
    (:meth:`ShardedGraph.descendants_within_ids`).  The result equals
    ``bounded_match`` on the unsharded graph; the id components use the
    composite global-id space, ``id_distances`` (only
    ``with_distances``) being the index ``I(V)``: pair -> shortest
    distance, minimized across view edges.
    """
    from repro.simulation.bounded import (
        bounded_edge_matches,
        maximum_bounded_simulation,
    )

    sim = maximum_bounded_simulation(pattern, sharded)
    if sim is None:
        return no_match()
    per_edge = bounded_edge_matches(
        pattern, sharded, sim, with_distances=with_distances
    )
    id_of = {v: sharded.id_of(v) for v in set().union(*sim.values())}
    id_rows: IdRows = {}
    id_distances: Optional[Dict[Tuple[int, int], int]] = (
        {} if with_distances else None
    )
    for edge, pairs in per_edge.items():
        src = array("q")
        tgt = array("q")
        for pair in pairs:
            key = (id_of[pair[0]], id_of[pair[1]])
            src.append(key[0])
            tgt.append(key[1])
            if id_distances is not None:
                d = pairs[pair]
                previous = id_distances.get(key)
                if previous is None or d < previous:
                    id_distances[key] = d
        id_rows[edge] = (src, tgt)
    edge_matches = {edge: set(pairs) for edge, pairs in per_edge.items()}
    return MatchResult(sim, edge_matches), id_rows, id_distances
