"""The QueryEngine: planned, cached, parallel view-based answering.

The paper's pipeline (Section II-B) is three stages that are each a
function of ``(Qs, V, V(G))``, and so is the layer around them: a
:class:`~repro.engine.catalog.Catalog` owns the state (and the lock),
:mod:`repro.engine.planner` is a pure function of it, and
:class:`QueryEngine`, here, is the runtime that answers -- an LRU of
answers keyed by the version stamps of exactly what each plan reads,
batches evaluated one plan after another
(:mod:`repro.engine.executor`) and per-answer telemetry
(``MatchResult.stats``, the plan-choice log, the metrics registry).

**Thread safety.**  The catalog lock covers catalog mutation and the
reads of one batch that must agree (plans, hits, materialization,
answer keys).  Evaluation runs *outside* it on the inputs captured under
it, so a maintenance batch landing mid-evaluation strands the in-flight
answer under the *old* stamps instead of corrupting the cache.  The
memo, answer LRU and registry hold leaf locks of their own.
Concurrent maintenance must flow through :meth:`QueryEngine.apply_delta`.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.containment import SELECTIONS
from repro.engine.cache import LRUCache
from repro.engine.catalog import Catalog, EngineCheckpoint, Evaluated
from repro.engine.executor import run_plans
from repro.engine.plan import (
    MATCHJOIN,
    ExecutionStats,
    PlanChoiceRecord,
    PlanLog,
    QueryPlan,
)
from repro.engine.planner import PlanningState, plan_query, require_runnable
from repro.graph.pattern import Pattern
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet

if TYPE_CHECKING:
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
    answer_cache_size:
        Answer-LRU capacity; ``0`` disables it.
    registry:
        The metrics registry to report into (default: process-global).
    """

    def __init__(
        self,
        views: Optional[ViewSet] = None,
        graph: Optional[DataGraph] = None,
        snapshot_path=None,
        selection: str = "minimal",
        answer_cache_size: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection {selection!r}; expected one of "
                f"{sorted(SELECTIONS)}"
            )
        #: The state this engine answers from (and its lock).
        self.catalog = Catalog(views, graph, snapshot_path)
        self._selection = selection
        self._containment_memo = LRUCache(CONTAINMENT_MEMO_SIZE)
        self._answer_cache = LRUCache(answer_cache_size)
        #: The metrics registry this engine reports into.
        self.registry = registry if registry is not None else get_registry()
        self._log = PlanLog(self.registry)

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
    def maintenance(self) -> Optional[IncrementalViewSet]:
        """The attached maintenance tracker (``None`` until attached)."""
        return self.catalog.maintenance

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
        """Keep the catalog fresh from ``tracker``, which maintains this
        engine's own graph (see :meth:`Catalog.attach_maintenance`)."""
        self.catalog.attach_maintenance(tracker)

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a maintenance batch atomically w.r.t. concurrent
        readers -- the *only* safe way to drive maintenance while other
        threads answer (the tracker's witness counters must not move
        mid-read).  Readers already evaluating finish on the pre-delta
        extensions and store under the pre-delta stamps."""
        return self.catalog.apply_delta(delta)

    def checkpoint(self) -> EngineCheckpoint:
        """Freshen the catalog and capture it as an immutable
        :class:`EngineCheckpoint` (see :meth:`Catalog.checkpoint`).
        The serving layer takes one per epoch: readers never
        materialize, never see half an update."""
        return self.catalog.checkpoint()

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
        """Plan ``query`` on ``state`` with this engine's default
        selection and containment memo.  Takes no lock: any thread may
        plan on an :class:`EngineCheckpoint` (the serving layer does,
        per pinned epoch); on the live catalog the caller holds its
        lock."""
        with trace.span("plan") as plan_span:
            plan = plan_query(
                state, query, selection, self._selection,
                self._containment_memo,
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
        return self._answer([plan], planned=True)[0]

    def answer_batch(
        self, queries: Sequence[Pattern], selection: Optional[str] = None
    ) -> List[MatchResult]:
        """Answer many queries, in order, sharing plans and caches:
        identical queries are evaluated once per batch, cache hits not
        at all."""
        return self._answer(queries, selection)

    def _answer(
        self,
        items: Sequence,
        selection: Optional[str] = None,
        planned: bool = False,
    ) -> List[MatchResult]:
        """The one answer body: plan, resolve cache hits, dedupe what is
        left by answer key, materialize, key on the state
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
                    hit, plans[index], elapsed=0.0, cache_hit=True
                )
            if not pending:
                return results  # type: ignore[return-value]
            owners = [plans[indices[0]] for indices in pending.values()]
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
            keys = {indices[0]: key for key, indices in pending.items()}
            tasks = [(index, plans[index]) for index in keys]
            # MatchJoin plans never read the graph: freeze only for others.
            graph = (
                catalog.snapshot()
                if any(plan.strategy != MATCHJOIN for _, plan in tasks)
                else None
            )
            evaluated = Evaluated(
                graph, catalog.views.extensions(), catalog.snapshot_kind
            )
        with (
            trace.span("evaluate", strategy=owners[0].strategy)
            if planned
            else trace.span("evaluate.batch", tasks=len(tasks))
        ):
            completed = run_plans(tasks, evaluated.extensions, graph)
        for index, result, elapsed in completed:
            self._answer_cache.put(keys[index], result)
            for twin in pending[keys[index]]:
                results[twin] = self._deliver(
                    result,
                    plans[twin],
                    elapsed=elapsed if twin == index else 0.0,
                    cache_hit=twin != index,
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
        )
        self.record_plan_choice(
            plan, elapsed=elapsed, cache_hit=cache_hit, state=state
        )
        return MatchResult(result.node_matches, result.edge_matches, stats=stats)

    def record_plan_choice(
        self,
        plan: QueryPlan,
        *,
        elapsed: float,
        cache_hit: bool,
        state: Optional[PlanningState] = None,
    ) -> PlanChoiceRecord:
        """File the plan-choice record of one answer delivered under
        ``plan``, built from ``state``: the planning state that answered
        (default: the live catalog; the serving layer passes the pinned
        checkpoint)."""
        if state is None:
            state = self.catalog
        record = PlanChoiceRecord.of(
            plan, state, elapsed=elapsed, cache_hit=cache_hit
        )
        self.log_plan_choice(plan, record)
        return record

    def log_plan_choice(self, plan: QueryPlan, record: PlanChoiceRecord) -> None:
        """Append a finished ``record`` of ``plan`` to the plan log and
        meter the registry -- lock-free (:class:`PlanLog`), so it may
        run on an event loop while a maintenance batch holds the
        catalog."""
        self._log.append(plan, record)

    def __repr__(self) -> str:
        catalog = self.catalog
        return (
            f"QueryEngine(views={catalog.views.cardinality}, "
            f"graph={'yes' if catalog.has_graph else 'no'}, "
            f"selection={self._selection!r})"
        )
