"""The QueryEngine: planned, cached, parallel view-based answering.

The paper's pipeline (Section II-B) is three stages that are each a
function of ``(Qs, V, V(G))``, and so is the layer around them: a
:class:`~repro.engine.catalog.Catalog` owns the state (and the lock),
:mod:`repro.engine.planner` is a pure function of it, and
:class:`QueryEngine`, here, is the runtime that answers -- an LRU of
answers keyed by the version stamps of exactly what each plan reads,
batches over serial or process-pool executors
(:mod:`repro.engine.executor`) and per-answer telemetry
(``MatchResult.stats``, the plan-choice log, the metrics registry).

**Thread safety.**  The catalog lock covers catalog mutation and the
reads of one batch that must agree (plans, hits, materialization, specs,
answer keys).  Evaluation runs *outside* it on the inputs captured under
it, so a maintenance batch landing mid-evaluation strands the in-flight
answer under the *old* stamps instead of corrupting the cache.  The
memo, answer LRU, cost model and registry hold leaf locks of their own.
Concurrent maintenance must flow through :meth:`QueryEngine.apply_delta`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.containment import SELECTIONS
from repro.engine.cache import LRUCache
from repro.engine.catalog import Catalog, EngineCheckpoint, Evaluated
from repro.engine.executor import EXECUTORS, run_specs, spec_of
from repro.engine.plan import (
    MATCHJOIN,
    PLANNER_DIRECT,
    PLANNER_FIXED,
    PLANNER_HYBRID,
    PLANNERS,
    ExecutionStats,
    PlanChoiceRecord,
    PlanLog,
    QueryPlan,
)
from repro.engine.planner import PlanningState, plan_query, require_runnable
from repro.graph.pattern import Pattern
from repro.obs import trace
from repro.obs.metrics import SIZE_BUCKETS, MetricsRegistry, get_registry
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet

if TYPE_CHECKING:
    from repro.engine.cost import CostModel
    from repro.graph.digraph import DataGraph
    from repro.views.maintenance import Delta, DeltaReport, IncrementalViewSet

#: Containment decisions memoized per engine (per query fingerprint,
#: selection and definitions version).
CONTAINMENT_MEMO_SIZE = 512

#: ``with`` target where a code path opens no span of its own.
_NO_SPAN = nullcontext()


class QueryEngine:
    """Answer pattern queries end-to-end against a view catalog.

    Parameters
    ----------
    views / graph / snapshot_path:
        The view catalog ``V``, and optionally the data graph ``G`` --
        it materializes missing extensions on demand and answers what
        the views cannot; without it such queries raise
        :class:`NotContainedError` (Theorem 1: containment is
        necessary) -- or a snapshot directory to boot both from (see
        :class:`~repro.engine.catalog.Catalog`).
    selection:
        Default view-selection policy: ``"all"`` (algorithm
        ``contain``), ``"minimal"`` (Fig. 5, Theorem 5) or
        ``"minimum"`` (greedy set-cover, Theorem 6).
    executor / workers:
        Default batch executor (see :data:`EXECUTORS`) and pool width.
        A batch that goes to a process pool first upgrades ``G``'s
        snapshot to shared memory, so the payload pickles to handles.
    answer_cache_size:
        Answer-LRU capacity; ``0`` disables it.
    shards / partitioner:
        Partition ``G`` once (:data:`repro.shard.partitioner.PARTITIONERS`)
        and evaluate against a :class:`~repro.shard.sharded.ShardedGraph`:
        shard-parallel materialization, partial-evaluation matching.
    registry:
        The metrics registry to report into (default: process-global).
    planner:
        ``"fixed"`` (default): MatchJoin iff contained; ``"adaptive"``
        prices MatchJoin subsets, hybrid rewriting and direct
        evaluation with the :class:`~repro.engine.cost.CostModel` and
        picks the cheapest; ``"direct"`` / ``"hybrid"`` force one
        strategy (baselines).
    auto_materialize:
        ``True`` (15% byte budget) or a float fraction of ``|G|``'s
        bytes: a :class:`~repro.engine.advisor.WorkloadAdvisor` ticks
        every :data:`~repro.engine.advisor.ADVISOR_INTERVAL` answers,
        materializing hot views and evicting cold ones.
    """

    def __init__(
        self,
        views: Optional[ViewSet] = None,
        graph: Optional[DataGraph] = None,
        snapshot_path=None,
        selection: str = "minimal",
        executor: str = "serial",
        workers: Optional[int] = None,
        answer_cache_size: int = 128,
        shards: Optional[int] = None,
        partitioner: str = "hash",
        registry: Optional[MetricsRegistry] = None,
        planner: str = PLANNER_FIXED,
        auto_materialize=None,
    ) -> None:
        if selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection {selection!r}; expected one of "
                f"{sorted(SELECTIONS)}"
            )
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if planner not in PLANNERS:
            raise ValueError(
                f"unknown planner {planner!r}; expected one of {PLANNERS}"
            )
        #: The state this engine answers from (and its lock).
        self.catalog = catalog = Catalog(
            views, graph, snapshot_path, shards, partitioner, executor, workers
        )
        if planner in (PLANNER_DIRECT, PLANNER_HYBRID) and not catalog.has_graph:
            raise ValueError(
                f"planner={planner!r} requires a data graph to evaluate on"
            )
        self._selection = selection
        self._executor = executor
        self._workers = workers
        #: The planner mode (see :data:`~repro.engine.plan.PLANNERS`).
        self.planner = planner
        self._containment_memo = LRUCache(CONTAINMENT_MEMO_SIZE)
        self._answer_cache = LRUCache(answer_cache_size)
        # Cumulative process-pool shipping cost (see ship_stats()).
        self._ship_totals = {"batches": 0, "bytes": 0, "seconds": 0.0}
        #: The metrics registry this engine reports into.
        self.registry = registry if registry is not None else get_registry()
        self._log = PlanLog(self.registry)
        # Created by whoever first reads :attr:`cost_model` (a priced
        # planner, here; an advisor when it attaches); a fixed-planner
        # engine nobody asks never loads one.
        self._cost_model: Optional[CostModel] = None
        if planner != PLANNER_FIXED:
            from repro.engine.cost import CostModel

            self._cost_model = CostModel()
        #: The :class:`~repro.engine.advisor.WorkloadAdvisor` when
        #: ``auto_materialize=`` was requested, else ``None``.
        self.advisor = None
        if auto_materialize:
            from repro.engine.advisor import WorkloadAdvisor

            # Refuses an engine without a graph to materialize from.
            self.advisor = (
                WorkloadAdvisor(self, budget_fraction=auto_materialize)
                if isinstance(auto_materialize, float)
                else WorkloadAdvisor(self)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def views(self) -> ViewSet:
        """The engine's view catalog."""
        return self.catalog.views

    @property
    def graph(self) -> Optional[DataGraph]:
        """The fallback data graph (``None`` for a views-only engine)."""
        return self.catalog.graph

    @property
    def snapshot_path(self) -> Optional[str]:
        """The snapshot directory booted from (``None``: live graph)."""
        return self.catalog.snapshot_path

    @property
    def cost_model(self) -> CostModel:
        """The cost model, calibrated by every answer delivered since
        it came to exist (at construction for priced planners, else on
        first access -- an advisor's, when it attaches)."""
        if self._cost_model is None:
            from repro.engine.cost import CostModel

            with self.catalog.lock:
                if self._cost_model is None:
                    self._cost_model = CostModel()
        return self._cost_model

    @property
    def maintenance(self) -> Optional[IncrementalViewSet]:
        """The attached maintenance tracker (``None`` when detached)."""
        return self.catalog.views.maintenance

    def graph_units(self) -> float:
        """``|G|`` in cost-model work units (nodes + edges; 0 without)."""
        return self.catalog.graph_units()

    def snapshot(self):
        """The frozen view of ``G`` (see :meth:`Catalog.snapshot`)."""
        return self.catalog.snapshot()

    def plan_log(self, limit: Optional[int] = None) -> List[PlanChoiceRecord]:
        """The most recent plan-choice records, newest first: one per
        delivered answer (cache hits included), capped at
        :data:`~repro.engine.plan.PLAN_LOG_CAPACITY`."""
        return self._log.recent(limit)

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters for both caches."""
        return {
            "containment": self._containment_memo.stats.snapshot(),
            "answers": self._answer_cache.stats.snapshot(),
        }

    def ship_stats(self) -> Dict[str, float]:
        """Cumulative process-pool payload shipping cost: ``batches``
        batches serialized ``bytes`` of shared payload in ``seconds``
        (near-constant per batch: segment handles ship, not buffers)."""
        with self.catalog.lock:
            return dict(self._ship_totals)

    def invalidate(self) -> None:
        """Drop every cached decision and answer.  Normally unnecessary:
        answer keys embed the stamps of what each plan reads and
        decision keys ``definitions_version``, so any relevant mutation
        already strands the stale entries."""
        self._containment_memo.clear()
        self._answer_cache.clear()

    # ------------------------------------------------------------------
    # Catalog operations (the engine's public names for them)
    # ------------------------------------------------------------------
    def materialize_views(self, names: Sequence[str]) -> List[str]:
        """Materialize the named views (skipping any already fresh)
        against the frozen snapshot; returns the ones it built."""
        if self.catalog.graph is None:
            raise ValueError("materialize_views() requires a data graph")
        return self.catalog.materialize(names)

    def evict_extensions(self, names: Sequence[str]) -> List[str]:
        """Drop the named views' cached extensions (definitions stay);
        see :meth:`Catalog.evict`."""
        return self.catalog.evict(names)

    def attach_maintenance(self, tracker: IncrementalViewSet) -> None:
        """Keep the catalog fresh from ``tracker`` and evaluate on its
        graph copy (see :meth:`Catalog.attach_maintenance`)."""
        self.catalog.attach_maintenance(tracker)

    def detach_maintenance(self) -> None:
        """Stop following the attached tracker (keeps current extensions
        and the adopted graph)."""
        with self.catalog.lock:
            self.catalog.views.unfollow()

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a maintenance batch atomically w.r.t. concurrent
        readers -- the *only* safe way to drive maintenance while other
        threads answer (the tracker's witness counters must not move
        mid-read).  Readers already evaluating finish on the pre-delta
        extensions and store under the pre-delta stamps."""
        return self.catalog.apply_delta(delta)

    def checkpoint(self) -> EngineCheckpoint:
        """Freshen the catalog and capture it as an immutable
        :class:`EngineCheckpoint` (see :meth:`Catalog.checkpoint`),
        honoring an advisor's evictions.  The serving layer takes one
        per epoch: readers never materialize, never see half an update."""
        return self.catalog.checkpoint(keep_evictions=self.advisor is not None)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Pattern, selection: Optional[str] = None) -> QueryPlan:
        """The evaluation plan for ``query`` on the live catalog.  The
        containment decision -- the expensive part, Theorem 3 -- is
        memoized per (query fingerprint, selection, definitions
        version); repeated shapes skip straight to strategy choice."""
        catalog = self.catalog
        with catalog.lock:
            catalog.sync()
            return self.plan_on(catalog, query, selection)

    def plan_on(
        self,
        state: PlanningState,
        query: Pattern,
        selection: Optional[str] = None,
    ) -> QueryPlan:
        """Plan ``query`` on ``state`` with this engine's planner mode,
        memo and cost model.  Takes no lock: any thread may plan on an
        :class:`EngineCheckpoint` (the serving layer does, per pinned
        epoch); on the live catalog the caller holds its lock."""
        with trace.span("plan") as plan_span:
            plan = plan_query(
                state, query, selection, self.planner, self._selection,
                self._containment_memo, self._cost_model,
            )
            if plan_span is not None:
                plan_span.set(
                    strategy=plan.strategy,
                    selection=plan.selection,
                    containment_cached=plan.containment_cached,
                    **({"reason": plan.reason} if plan.reason else {}),
                )
            return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def answer(self, query: Pattern, selection: Optional[str] = None) -> MatchResult:
        """Plan and evaluate ``query``; stats ride on ``result.stats``."""
        return self.execute(self.plan(query, selection))

    def execute(self, plan: QueryPlan) -> MatchResult:
        """Evaluate a plan (re-planning first if the definitions moved
        on; extension refreshes only re-key the answer, the containment
        decision stays valid)."""
        return self._answer([plan], "serial", None, planned=True)[0]

    def answer_batch(
        self,
        queries: Sequence[Pattern],
        selection: Optional[str] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[MatchResult]:
        """Answer many queries, in order, sharing plans and caches:
        identical queries are evaluated once per batch, cache hits not
        at all.  ``executor`` / ``workers`` override the engine
        defaults for this batch only."""
        return self._answer(
            queries,
            executor or self._executor,
            workers if workers is not None else self._workers,
            selection,
        )

    def _answer(
        self,
        items: Sequence,
        executor: str,
        workers: Optional[int],
        selection: Optional[str] = None,
        planned: bool = False,
    ) -> List[MatchResult]:
        """The one answer body: plan, resolve cache hits, dedupe what is
        left by answer key, materialize, build specs, key on the state
        actually evaluated, run, store, deliver.  ``items`` are queries,
        or -- ``planned``, :meth:`execute`'s entry -- one plan, replanned
        only if the definitions moved on; that entry keeps its own span
        names (``cache.lookup`` / ``evaluate``, not ``evaluate.batch``)."""
        catalog = self.catalog
        plans: List[QueryPlan] = []
        results: List[Optional[MatchResult]] = [None] * len(items)
        # Answer key -> plan indices sharing it; the first evaluates.
        pending: Dict[Tuple, List[int]] = {}
        hits: List[Tuple[int, MatchResult]] = []
        with catalog.lock:
            catalog.sync()
            with trace.span("cache.lookup") if planned else _NO_SPAN as lookup:
                for index, plan in enumerate(items):
                    if not planned:
                        plan = self.plan_on(catalog, plan, selection)
                    elif plan.cache_key[2] != catalog.definitions_version:
                        plan = self.plan_on(catalog, plan.query, plan.selection)
                    plans.append(plan)
                    # Keyed on the catalog's *current* stamps: extensions
                    # may have moved since planning; the plan stays valid.
                    key = catalog.answer_key(plan)
                    if key in pending:
                        pending[key].append(index)
                        continue
                    hit = self._answer_cache.get(key)
                    if hit is None:
                        pending[key] = [index]
                    else:
                        hits.append((index, hit))
                if lookup is not None:
                    lookup.set(hit=not pending)
            for index, hit in hits:
                results[index] = self._deliver(
                    hit, plans[index], elapsed=0.0, cache_hit=True,
                    executor=executor,
                )
            if not pending:
                return results  # type: ignore[return-value]
            owners = [plans[indices[0]] for indices in pending.values()]
            if executor == "process" and len(owners) > 1:
                catalog.share()  # this batch ships: pickle to handles
            for plan in owners:
                require_runnable(catalog, plan)
            needed = dict.fromkeys(n for plan in owners for n in plan.views_used)
            if needed and catalog.materialize(list(needed)):
                # Stamps moved: key each answer on the state actually
                # evaluated, *before* releasing the lock -- a batch
                # landing mid-evaluation then strands it under the old
                # stamps instead of storing it under the new ones.
                pending = {
                    catalog.answer_key(plans[indices[0]]): indices
                    for indices in pending.values()
                }
            trace_id = trace.current_span_id()
            keys = {indices[0]: key for key, indices in pending.items()}
            specs = [(index, spec_of(plans[index], trace_id)) for index in keys]
            # MatchJoin specs never read the graph: freeze only for others.
            graph = (
                catalog.snapshot()
                if any(spec.kind != MATCHJOIN for _, spec in specs)
                else None
            )
            evaluated = Evaluated(
                graph, catalog.views.extensions(), catalog.snapshot_kind
            )
        with (
            trace.span("evaluate", strategy=owners[0].strategy, executor=executor)
            if planned
            else trace.span("evaluate.batch", tasks=len(specs), executor=executor)
        ):
            completed, ship = run_specs(
                specs, evaluated.extensions, graph,
                executor=executor, workers=workers,
            )
        if ship.bytes:
            with catalog.lock:
                self._ship_totals["batches"] += 1
                self._ship_totals["bytes"] += ship.bytes
                self._ship_totals["seconds"] += ship.seconds
            self.registry.histogram(
                "repro_engine_ship_bytes", SIZE_BUCKETS
            ).observe(ship.bytes)
        for index, result, elapsed, pid, _ in completed:
            self._answer_cache.put(keys[index], result)
            for twin in pending[keys[index]]:
                results[twin] = self._deliver(
                    result,
                    plans[twin],
                    elapsed=elapsed if twin == index else 0.0,
                    cache_hit=twin != index,
                    executor=executor,
                    pid=pid,
                    ship=ship if twin == index else None,
                    state=evaluated,
                )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(
        self,
        result: MatchResult,
        plan: QueryPlan,
        elapsed: float,
        cache_hit: bool,
        executor: str = "serial",
        pid: Optional[int] = None,
        ship=None,
        state=None,
    ) -> MatchResult:
        """Wrap a (possibly shared, cached) result with fresh stats,
        appending the plan-choice record (off ``state``: what the
        answer was evaluated on) and metering the registry."""
        stats = ExecutionStats(
            strategy=plan.strategy,
            selection=plan.selection,
            views_used=plan.views_used,
            elapsed=elapsed,
            cache_hit=cache_hit,
            containment_cached=plan.containment_cached,
            executor=executor,
            pid=pid if pid is not None else os.getpid(),
            ship_bytes=ship.bytes if ship is not None else 0,
            ship_seconds=ship.seconds if ship is not None else 0.0,
        )
        self.record_plan_choice(
            plan, elapsed=elapsed, cache_hit=cache_hit, executor=executor,
            state=state,
        )
        return MatchResult(result.node_matches, result.edge_matches, stats=stats)

    def record_plan_choice(
        self,
        plan: QueryPlan,
        *,
        elapsed: float,
        cache_hit: bool,
        executor: str = "serial",
        state: Optional[PlanningState] = None,
    ) -> PlanChoiceRecord:
        """File the plan-choice record of one answer delivered under
        ``plan``: built from ``state``, the planning state that answered
        (default: the live catalog; the serving layer passes the pinned
        checkpoint, whose reads take no lock), it calibrates the cost
        model, is logged, and gives the advisor its tick -- which takes
        the catalog lock, so keep this off event loops (a prebuilt hit
        record goes through the lock-free :meth:`log_plan_choice`)."""
        if state is None:
            state = self.catalog
        record = PlanChoiceRecord.of(
            plan, state, elapsed=elapsed, cache_hit=cache_hit, executor=executor
        )
        if self._cost_model is not None and not cache_hit:
            self._cost_model.observe_answer(plan, state, record)
        self.log_plan_choice(plan, record)
        if self.advisor is not None:
            with self.catalog.lock:
                self.advisor.maybe_tick()
        return record

    def log_plan_choice(self, plan: QueryPlan, record: PlanChoiceRecord) -> None:
        """Append a finished ``record`` of ``plan`` to the plan log and
        meter the registry -- lock-free (:class:`PlanLog`), so it may
        run on an event loop while a maintenance batch holds the
        catalog."""
        self._log.append(plan, record)

    def __repr__(self) -> str:
        catalog = self.catalog
        shards = catalog.shards
        return (
            f"QueryEngine(views={catalog.views.cardinality}, "
            f"graph={'yes' if catalog.has_graph else 'no'}, "
            f"selection={self._selection!r}, executor={self._executor!r}"
            + (f", shards={shards})" if shards is not None else ")")
        )
