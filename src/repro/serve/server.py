"""The asyncio serving layer: concurrent reads over swapped epochs.

:class:`QueryServer` is the front door the ROADMAP's "millions of
users" story needs: a long-running service answering pattern queries
*while the graph keeps changing*.  The concurrency model:

* **readers never block on maintenance.**  A query pins the current
  :class:`~repro.serve.epoch.Epoch` (an immutable
  :class:`~repro.engine.catalog.EngineCheckpoint` -- frozen snapshot +
  materialized extensions + version stamps) and evaluates against it in
  a thread pool.  Maintenance builds the next epoch concurrently; the
  reader finishes on the one it pinned.
* **updates are epoch swaps, not stop-the-world.**  :meth:`update`
  applies a :class:`~repro.views.Delta` through
  :meth:`QueryEngine.apply_delta` and captures
  :meth:`QueryEngine.checkpoint` in a dedicated maintenance thread,
  then atomically swaps the registry pointer.  The superseded epoch
  drains as its in-flight readers complete.
* **identical in-flight queries coalesce.**  Requests are keyed exactly
  like the engine's answer cache -- (query fingerprint, selection,
  definitions version, plan-relevant view version vector) -- so M
  concurrent arrivals of one query cost one evaluation; later arrivals
  at the same versions hit the server's answer LRU outright.
* **a cache hit is a lookup and a write.**  What a query resolves to
  on an epoch (its plan on that checkpoint, hence its answer key) is
  memoised on the :class:`~repro.serve.epoch.Epoch`, and an answer-LRU
  entry keeps the encoded reply fragment beside the result -- so a warm
  hit never leaves the event loop, never plans and never serialises.
  A miss asked for over the wire is encoded on its evaluation's pool
  hop, so the loop does no per-pair work for any answer.
* **a swap drops what it strands.**  Version stamps only grow, so an
  entry keyed by stamps the new checkpoint no longer carries can never
  hit again for new readers; the swap purges exactly those.
* **admission control sheds, never queues unboundedly.**  At most
  ``max_inflight`` evaluations run with ``max_queue`` waiters; past
  that, requests fail fast with the retriable
  :class:`~repro.errors.ServerOverloadedError`.

All bookkeeping (counters, coalescing map, answer LRU, per-epoch
resolutions) is touched only from the event loop; only pin/release
refcounts and the engine itself are shared with executor threads, and
both are locked.  **The loop never takes the catalog lock**:
maintenance holds it for a whole batch (and ``checkpoint()`` may
rematerialise under it).  A request needs it nowhere -- it plans *and*
evaluates on the checkpoint it pinned, so a miss never waits out a
maintenance batch.  A miss files its plan-choice record on the
evaluation's pool hop (:meth:`QueryEngine.record_plan_choice`); a hit's
record is prebuilt from the pinned checkpoint and appended lock-free
(:meth:`QueryEngine.log_plan_choice`).
"""

from __future__ import annotations

import asyncio
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, NamedTuple, Optional, Tuple

from repro.engine.cache import LRUCache
from repro.engine.catalog import EngineCheckpoint
from repro.engine.engine import QueryEngine
from repro.engine.executor import evaluate
from repro.engine.plan import (
    MATCHJOIN,
    PlanChoiceRecord,
    QueryPlan,
    pattern_key,
)
from repro.errors import ServerClosedError, ServerOverloadedError
from repro.graph.pattern import Pattern
from repro.obs import trace
from repro.obs.metrics import DURATION_BUCKETS
from repro.obs.trace import TraceCollector
from repro.serve.epoch import Epoch, SnapshotRegistry
from repro.serve.wire import result_fragment
from repro.simulation.result import MatchResult
from repro.views.maintenance import Delta, DeltaReport

log = logging.getLogger(__name__)

#: Completed request traces retained for ``repro trace`` / the
#: ``slowlog`` protocol op (ring buffer; slowest kept separately).
TRACE_CAPACITY = 256
SLOW_CAPACITY = 32


class ServedAnswer(NamedTuple):
    """One served query: the result plus serving provenance."""

    result: MatchResult
    epoch: int
    cache_hit: bool
    coalesced: bool
    elapsed: float
    #: The encoded ``"result"`` reply fragment (:mod:`repro.serve.wire`),
    #: for requests made with ``wire=True``.
    wire: Optional[bytes] = None


class CachedAnswer:
    """One answer-LRU entry: the result, the plan its key was stamped
    from (what a swap re-stamps to tell whether the entry is stranded),
    and the encoded reply fragment once a request has needed it.
    Coalesced followers share the entry, so one evaluation is encoded
    at most once."""

    __slots__ = ("result", "plan", "wire")

    def __init__(
        self, result: MatchResult, plan: QueryPlan, wire: Optional[bytes] = None
    ) -> None:
        self.result = result
        self.plan = plan
        self.wire = wire


class Resolution(NamedTuple):
    """What one (query, selection) resolves to on one epoch; memoised
    in :attr:`Epoch.resolutions`.  The plan was made on the epoch's
    checkpoint, so ``plan.cache_key`` is the answer/coalescing key on
    this epoch; ``hit_record`` is the plan-choice record of every
    answer served from cache under this resolution."""

    plan: QueryPlan
    hit_record: PlanChoiceRecord


class UpdateOutcome(NamedTuple):
    """One applied maintenance batch: the view-layer report plus the
    epoch id the batch published."""

    report: DeltaReport
    epoch: int


class QueryServer:
    """Serve pattern queries concurrently with maintenance updates.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.engine.QueryEngine` with a data graph.
        Attach an :class:`~repro.views.maintenance.IncrementalViewSet`
        (``engine.attach_maintenance``) before serving if :meth:`update`
        will be used.
    max_inflight:
        Concurrent evaluations (also the reader thread-pool width).
    max_queue:
        Admitted requests allowed to wait for an evaluation slot; a
        request arriving with ``max_inflight + max_queue`` already
        admitted is shed with :class:`ServerOverloadedError`.
    answer_cache_size:
        Capacity of the server's answer LRU, in entries (version-stamp
        keyed, so an entry a newer epoch supersedes is never wrong --
        and is dropped at the swap that strands it).  ``0`` disables
        it; coalescing still applies.
    persist_path:
        Snapshot directory to persist every published epoch into (via
        :meth:`~repro.graph.snapshot.SnapshotStore.save` with
        ``overwrite=True``: each epoch is a new generation of the
        directory, live once its manifest lands, so a process killed
        mid-write leaves the previous epoch or this one loadable).
        Epoch 0 is persisted at :meth:`start`, then every maintenance
        epoch after its swap, all on the maintenance thread.  Pair it
        with an engine booted from the same directory
        (``QueryEngine(snapshot_path=...)``) for serve-restart-serve
        durability.  A failed persist is logged and counted
        (``persist_failures``), never fatal to serving.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        max_inflight: int = 8,
        max_queue: int = 64,
        answer_cache_size: int = 1024,
        persist_path=None,
    ) -> None:
        if engine.graph is None and engine.snapshot_path is None:
            raise ValueError(
                "QueryServer requires an engine with a data graph "
                "(or one booted from a snapshot directory)"
            )
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self._engine = engine
        self._max_inflight = max_inflight
        self._max_queue = max_queue
        self._persist_path = persist_path
        self._registry = SnapshotRegistry()
        self._answers = LRUCache(answer_cache_size)
        self._coalescing: Dict[Tuple, asyncio.Future] = {}
        self._counters = {
            "admitted": 0,
            "completed": 0,
            "failed": 0,
            "shed": 0,
            "shed_inflight_full": 0,
            "shed_queue_full": 0,
            "coalesced": 0,
            "coalesce_owners": 0,
            "evaluated": 0,
            "cache_hits": 0,
            "deltas": 0,
            "ops_applied": 0,
            "ops_skipped": 0,
            "snapshots_persisted": 0,
            "persist_failures": 0,
        }
        # stats() may be called from any thread (the metrics endpoint
        # runs outside the event loop); counter *mutation* stays on the
        # loop, but snapshots take this lock for a consistent read.
        self._counters_lock = threading.Lock()
        self._traces = TraceCollector(
            capacity=TRACE_CAPACITY, slow_capacity=SLOW_CAPACITY
        )
        self._active = 0
        self._started = False
        self._closing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._update_lock: Optional[asyncio.Lock] = None
        self._idle: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._maint_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build and publish epoch 0, then open admission."""
        if self._started:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self._max_inflight)
        self._update_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_inflight, thread_name_prefix="repro-serve-read"
        )
        self._maint_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-maint"
        )
        checkpoint = await self._loop.run_in_executor(
            self._maint_pool, self._checkpoint_sync
        )
        self._registry.swap(checkpoint)
        self._started = True

    async def stop(self) -> None:
        """Clean shutdown: refuse new requests, drain in-flight ones,
        release the thread pools.  Idempotent."""
        self._closing = True
        if not self._started:
            return
        await self._idle.wait()
        # wait=False: the pools are idle by now (every request drained),
        # and the event loop must not block on thread joins.
        self._pool.shutdown(wait=False)
        self._maint_pool.shutdown(wait=False)
        self._started = False

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def engine(self) -> QueryEngine:
        """The engine this server fronts."""
        return self._engine

    @property
    def current_epoch(self) -> int:
        """The id of the epoch new readers pin right now."""
        return self._registry.current_id

    @property
    def closing(self) -> bool:
        """Whether shutdown has begun (new requests are refused)."""
        return self._closing

    def _require_open(self) -> None:
        if self._closing or not self._started:
            raise ServerClosedError(
                "server is not accepting requests"
                + (" (shutting down)" if self._closing else " (not started)")
            )

    def _count(self, key: str, n: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += n

    @property
    def traces(self) -> TraceCollector:
        """Completed request span trees (ring buffer + slow log)."""
        return self._traces

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def query(
        self,
        pattern: Pattern,
        selection: Optional[str] = None,
        *,
        wire: bool = False,
    ) -> ServedAnswer:
        """Answer one query against the current epoch.

        Sheds immediately (retriable
        :class:`~repro.errors.ServerOverloadedError`) when admission is
        full; raises :class:`~repro.errors.ServerClosedError` during
        shutdown.  The returned :class:`ServedAnswer` names the epoch
        the answer was computed on -- the snapshot-consistency contract
        is *per epoch*, not "latest": a reader racing an update may be
        served from the epoch it pinned at admission.

        ``wire=True`` (the TCP front end) also returns the encoded
        reply fragment, produced once per cached answer.
        """
        self._require_open()
        if self._active >= self._max_inflight + self._max_queue:
            # Which limit actually turned the request away: with no
            # queue configured the inflight cap itself is the wall;
            # otherwise admission got past it and the queue was full.
            reason = "queue-full" if self._max_queue > 0 else "inflight-full"
            self._count("shed")
            self._count(
                "shed_queue_full"
                if reason == "queue-full"
                else "shed_inflight_full"
            )
            self._engine.registry.counter(
                "repro_server_shed_total", reason=reason
            ).inc()
            log.debug(
                "shed request (%s): %d in flight", reason, self._active
            )
            raise ServerOverloadedError(
                f"admission full: {self._active} requests in flight "
                f"(max_inflight={self._max_inflight}, "
                f"max_queue={self._max_queue}); retry after backoff"
            )
        self._count("admitted")
        self._active += 1
        self._idle.clear()
        admitted_at = perf_counter()
        with trace.root_span(
            "server.query", collector=self._traces
        ) as root:
            try:
                async with self._slots:
                    queue_wait = perf_counter() - admitted_at
                    epoch = self._registry.pin()
                    root.set(
                        epoch=epoch.epoch_id,
                        queue_wait_ms=round(queue_wait * 1e3, 3),
                    )
                    self._engine.registry.histogram(
                        "repro_server_queue_wait_seconds", DURATION_BUCKETS
                    ).observe(queue_wait)
                    try:
                        answer = await self._answer_pinned(
                            pattern, selection, epoch, wire, root
                        )
                    finally:
                        epoch.release()
                self._count("completed")
                self._engine.registry.counter(
                    "repro_server_requests_total", outcome="completed"
                ).inc()
                return answer
            except BaseException as err:
                root.set(error=type(err).__name__)
                self._count("failed")
                self._engine.registry.counter(
                    "repro_server_requests_total", outcome="failed"
                ).inc()
                raise
            finally:
                self._active -= 1
                if self._active == 0:
                    self._idle.set()

    async def _answer_pinned(
        self,
        pattern: Pattern,
        selection: Optional[str],
        epoch: Epoch,
        wire: bool,
        root: trace.Span,
    ) -> ServedAnswer:
        # ``root`` is this task's current span; executor threads do not
        # inherit the context, so pool hops carry it over explicitly.
        memo_key = (pattern_key(pattern), selection)
        resolution = epoch.resolutions.get(memo_key)
        root.set(resolved="planned" if resolution is None else "memo")
        if resolution is None:
            resolution = await self._loop.run_in_executor(
                self._pool, self._attached, root, self._resolve,
                pattern, selection, epoch,
            )
            # Bounded like the answers it leads to: a resolution whose
            # answer cannot be cached saves a pool hop and nothing else,
            # so on overflow the memo simply starts over.
            if len(epoch.resolutions) >= self._answers.maxsize:
                epoch.resolutions.clear()
            epoch.resolutions[memo_key] = resolution
        key = resolution.plan.cache_key
        entry = self._answers.get(key)
        pending = self._coalescing.get(key) if entry is None else None
        cache_hit = entry is not None
        coalesced = pending is not None
        elapsed = 0.0
        if cache_hit:
            self._count("cache_hits")
            root.set(outcome="cache-hit")
            self._engine.registry.counter(
                "repro_server_answers_total", outcome="cache-hit"
            ).inc()
        elif coalesced:
            self._count("coalesced")
            root.set(outcome="coalesced-follower")
            self._engine.registry.counter(
                "repro_server_answers_total", outcome="coalesced"
            ).inc()
            entry = await asyncio.shield(pending)
        else:
            root.set(outcome="evaluated")
            entry, elapsed = await self._evaluate_owned(
                resolution, epoch, root, wire
            )
        if cache_hit or coalesced:
            self._engine.log_plan_choice(
                resolution.plan, resolution.hit_record
            )
        if wire:
            # An owner encoded on its evaluation hop; a hit or follower
            # encodes here only if its owner asked without ``wire``.
            encoded = entry.wire is None or not (cache_hit or coalesced)
            if entry.wire is None:
                entry.wire = result_fragment(entry.result)
            root.set(wire="encoded" if encoded else "cached")
            if encoded:
                self._refresh_wire_gauge()
        return ServedAnswer(
            entry.result, epoch.epoch_id, cache_hit, coalesced, elapsed,
            entry.wire if wire else None,
        )

    async def _evaluate_owned(
        self, resolution: Resolution, epoch: Epoch, root: trace.Span, wire: bool
    ) -> Tuple[CachedAnswer, float]:
        """Evaluate as the coalescing owner of the plan's answer key:
        followers arriving meanwhile wait on the future published here,
        and the finished entry goes into the answer LRU.  With ``wire``
        the reply fragment is encoded on the same pool hop, so the loop
        does no per-pair work for a miss."""
        plan = resolution.plan
        key = plan.cache_key
        self._count("coalesce_owners")
        future: asyncio.Future = self._loop.create_future()
        self._coalescing[key] = future
        try:
            result, elapsed, fragment = await self._loop.run_in_executor(
                self._pool, self._attached, root, self._evaluate_recorded,
                plan, epoch, wire,
            )
        except BaseException as err:
            self._coalescing.pop(key, None)
            if not future.done():
                future.set_exception(err)
                future.exception()  # mark retrieved: followers rethrow
            raise
        self._count("evaluated")
        self._engine.registry.counter(
            "repro_server_answers_total", outcome="evaluated"
        ).inc()
        entry = CachedAnswer(result, plan, fragment)
        self._answers.put(key, entry)
        self._coalescing.pop(key, None)
        if not future.done():
            future.set_result(entry)
        return entry, elapsed

    @staticmethod
    def _attached(parent, fn, *args):
        """Run ``fn`` in a pool thread under the request's span."""
        with trace.attach(parent):
            return fn(*args)

    def _resolve(
        self, pattern: Pattern, selection: Optional[str], epoch: Epoch
    ) -> Resolution:
        """Plan ``pattern`` on the checkpoint ``epoch`` pinned and
        derive everything a request on it needs (reader pool; no lock:
        the checkpoint is immutable).  The checkpoint cannot
        materialize, so the plan reads only extensions it holds, and
        its ``cache_key`` carries this epoch's stamps, so
        concurrent epochs share an entry only when their inputs are
        truly identical."""
        checkpoint = epoch.checkpoint
        plan = self._engine.plan_on(checkpoint, pattern, selection)
        # A hit is served from this checkpoint, so its record reports
        # the extension sizes and backend actually read.
        hit_record = PlanChoiceRecord.of(
            plan, checkpoint, elapsed=0.0, cache_hit=True
        )
        return Resolution(plan, hit_record)

    def _evaluate_recorded(self, plan: QueryPlan, epoch: Epoch, wire: bool):
        """Evaluate, file the answer's plan-choice record off the
        checkpoint that answered, and -- with ``wire`` -- encode the
        reply fragment (reader pool; ``elapsed`` is the evaluation's)."""
        result, elapsed = self._evaluate(plan, epoch)
        self._engine.record_plan_choice(
            plan, elapsed=elapsed, cache_hit=False, state=epoch.checkpoint
        )
        if not wire:
            return result, elapsed, None
        with trace.span("encode") as current:
            fragment = result_fragment(result)
            if current is not None:
                current.set(bytes=len(fragment))
        return result, elapsed, fragment

    def _evaluate(self, plan: QueryPlan, epoch: Epoch):
        """Synchronous evaluation against a pinned epoch (runs in the
        reader pool; tests wrap this to control interleavings)."""
        checkpoint = epoch.checkpoint
        started = perf_counter()
        with trace.span("evaluate", kind=plan.strategy) as current:
            result = evaluate(
                plan,
                checkpoint.extensions,
                checkpoint.snapshot if plan.strategy != MATCHJOIN else None,
            )
            if current is not None:
                current.set(pairs=result.result_size)
        return result, perf_counter() - started

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    async def update(self, delta: Delta) -> UpdateOutcome:
        """Apply a maintenance batch and publish the next epoch.

        Serialized (one batch at a time); the apply + checkpoint runs
        in the dedicated maintenance thread, so readers keep being
        admitted and evaluated throughout.  Readers pinned to the old
        epoch drain on it; readers admitted after the swap see the new
        one.
        """
        self._require_open()
        async with self._update_lock:
            with trace.root_span(
                "server.update", collector=self._traces, ops=len(delta.ops)
            ) as root:
                report, checkpoint = await self._maintain(
                    root, self._apply_sync, delta
                )
                epoch = self._publish(checkpoint)
                root.set(
                    epoch=epoch.epoch_id,
                    applied=report.applied,
                    skipped=report.skipped,
                )
            self._count("deltas")
            self._count("ops_applied", report.applied)
            self._count("ops_skipped", report.skipped)
            log.info(
                "epoch %d published: %d ops applied, %d skipped",
                epoch.epoch_id, report.applied, report.skipped,
            )
            return UpdateOutcome(report, epoch.epoch_id)

    async def _maintain(self, root: trace.Span, fn, *args):
        """Run ``fn`` on the maintenance thread under ``root``.  The
        two scheduling waits are spans of their own -- ``dispatch``
        (submitted -> the thread starts) and ``resume`` (the thread is
        done -> this task runs again) -- because under reader load they
        are a large share of an update (the GIL and the loop are both
        contended) and would otherwise be the root's unattributed time.
        """
        dispatch = trace.Span("dispatch", parent=root)

        def run():
            dispatch.finish()
            with trace.attach(root):
                return fn(*args), trace.Span("resume", parent=root)

        out, resume = await self._loop.run_in_executor(self._maint_pool, run)
        resume.finish()
        return out

    def _apply_sync(self, delta: Delta):
        with trace.span("apply"):
            report = self._engine.apply_delta(delta)
        return report, self._checkpoint_sync()

    def _checkpoint_sync(self):
        """Checkpoint the engine and persist the epoch (maintenance
        thread only; persistence rides the same thread so epoch N's
        snapshot directory never interleaves with epoch N+1's)."""
        with trace.span("checkpoint"):
            checkpoint = self._engine.checkpoint()
        if self._persist_path is not None:
            with trace.span("persist"):
                self._persist(checkpoint)
        return checkpoint

    def _publish(self, checkpoint: EngineCheckpoint) -> Epoch:
        """Swap the registry pointer to ``checkpoint`` and drop the
        cached answers the swap strands (event loop).

        Sound because stamps are monotonic: view versions and the graph
        version only ever grow, so an entry whose key material differs
        from what ``checkpoint`` stamps for the same plan inputs can
        never again equal a key built for a new reader.  Entries over
        views the batch left alone keep their stamps and keep hitting.
        A reader still pinned to a retiring epoch that now misses
        re-evaluates on its epoch -- correct, and rare.
        """
        with trace.span("swap") as current:
            epoch = self._registry.swap(checkpoint)
            dropped = self._answers.purge(
                lambda key, entry: (
                    key[2] != checkpoint.definitions_version
                    or key[3] != checkpoint.key_material(
                        entry.plan.strategy, entry.plan.views_used
                    )
                )
            )
            self._refresh_wire_gauge()
            if current is not None:
                current.set(dropped=dropped)
        self._engine.registry.counter("repro_server_epoch_swaps_total").inc()
        return epoch

    def _wire_bytes(self) -> int:
        """Bytes of encoded reply fragments the answer LRU holds."""
        return sum(
            len(entry.wire)
            for entry in self._answers.values()
            if entry.wire is not None
        )

    def _refresh_wire_gauge(self) -> None:
        self._engine.registry.gauge("repro_server_wire_bytes").set(
            self._wire_bytes()
        )

    def _persist(self, checkpoint) -> None:
        from repro.graph.snapshot import SnapshotStore

        try:
            SnapshotStore.save(
                self._persist_path,
                checkpoint.snapshot,
                views=checkpoint.extensions,
                overwrite=True,
            )
        except Exception:
            # Durability is best-effort per epoch: a full disk must not
            # take serving down, and the previous generation stays live
            # for the next boot until a newer one commits.
            self._count("persist_failures")
            log.exception(
                "failed to persist epoch snapshot to %r", self._persist_path
            )
        else:
            self._count("snapshots_persisted")
            self._engine.registry.counter(
                "repro_server_snapshots_persisted_total"
            ).inc()

    # ------------------------------------------------------------------
    # Introspection (the /stats view)
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """A JSON-ready report: epoch lifecycle, request/admission
        counters (shed and coalescing outcomes broken down), cache
        counters, per-view ``ViewStats``, and
        the engine registry's versioned metrics snapshot."""
        current = self._registry.current
        tracker = self._engine.maintenance
        with self._counters_lock:
            counters = dict(self._counters)
        return {
            "epoch": dict(
                self._registry.drain_stats(),
                current=self._registry.current_id,
                active_readers=current.readers if current is not None else 0,
            ),
            "requests": dict(
                counters,
                inflight=self._active,
                max_inflight=self._max_inflight,
                max_queue=self._max_queue,
            ),
            "metrics": self._engine.registry.snapshot(),
            "caches": dict(
                self._engine.cache_stats(),
                served_answers=dict(
                    self._answers.stats.snapshot(), bytes=self._wire_bytes()
                ),
            ),
            "views": (
                {
                    name: stats.snapshot()
                    for name, stats in tracker.stats().items()
                }
                if tracker is not None
                else {}
            ),
        }

    def __repr__(self) -> str:
        return (
            f"QueryServer(epoch={self._registry.current_id}, "
            f"inflight={self._active}/{self._max_inflight}+{self._max_queue}, "
            f"{'closing' if self._closing else 'open'})"
        )
