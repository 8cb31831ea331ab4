"""The QueryEngine: planned, cached, parallel view-based answering.

This is the deployment layer the paper sketches around its algorithms:
"graph pattern matching using views is an effective technique to query
big graphs" presumes a system that (a) decides containment once per
query shape, (b) keeps materialized extensions fresh and answers hot
queries from a cache, and (c) evaluates independent queries
concurrently.  :class:`QueryEngine` owns a
:class:`~repro.views.storage.ViewSet` and provides exactly that:

* :meth:`plan` -- run the containment check / view selection (Theorems
  3, 5, 6) once and return an inspectable :class:`QueryPlan` choosing
  MatchJoin over the views (``Q ⊑ V``) or direct ``Match`` on ``G``;
* :meth:`answer` / :meth:`execute` -- evaluate a plan, consulting an
  LRU answer cache keyed by (query fingerprint, selection, and the
  **per-view version vector** of exactly the views the plan reads --
  or the graph version for direct plans) so a maintenance update only
  strands the answers whose plan actually read a changed view;
* :meth:`answer_batch` -- evaluate many queries via serial, thread or
  process executors (simulation fixpoints are CPU-bound, so the
  process pool is the scaling path);
* :meth:`attach_maintenance` -- follow an
  :class:`~repro.views.maintenance.IncrementalViewSet`; graph updates
  refresh the engine's extensions lazily, importing only the views
  each update batch changed.

The engine freezes its data graph into a
:class:`~repro.graph.compact.CompactGraph` snapshot exactly once and
reuses it everywhere ``G`` is read -- materializing missing extensions,
direct evaluation, and every batch executor (the snapshot ships to
process-pool workers in place of the mutable graph).  Extensions
materialized against the snapshot carry id-space payloads, so MatchJoin
runs its integer fast path end to end.  Maintenance events do **not**
drop this snapshot: the engine consumes them as batches and *refreshes*
it through the graph's edge-op journal
(:meth:`DataGraph.edge_changes_since` /
:meth:`~repro.graph.compact.CompactGraph.refreshed`), re-binding the
refreshed extensions of changed views into the new id space and
re-stamping the untouched ones (zero-cost ``rebound``), so the integer
fast path survives the update stream.

With ``shards=N`` the engine snapshots ``G`` as a
:class:`~repro.shard.sharded.ShardedGraph` instead: the graph is
partitioned once (pluggable strategy), missing extensions materialize
shard-parallel through the engine's executor, and direct evaluation
runs the partial-evaluation matcher -- all behind the same planning,
caching and invalidation machinery, since the composite snapshot token
makes sharded extensions indistinguishable from single-snapshot ones.

Every result carries an :class:`ExecutionStats` on ``MatchResult.stats``
(strategy, timing, cache provenance), so callers can meter the engine
without wrapping it.

**Thread safety.**  All catalog and cache mutation -- planning,
answer/containment cache reads and writes, snapshot refresh, on-demand
materialization and maintenance consumption -- is serialized behind one
reentrant lock, while evaluation itself (the CPU-heavy simulation
fixpoints) runs *outside* the lock against immutable inputs (a frozen
snapshot and a point-in-time copy of the extensions dict).  Answer-cache
keys are computed under the lock at spec-build time, so a maintenance
batch landing mid-evaluation strands the in-flight answer under the
*old* version stamps instead of corrupting the cache.  Concurrent
maintenance must flow through :meth:`apply_delta` (which takes the same
lock); the serving layer (:mod:`repro.serve`) builds its epoch-swap
machinery on exactly this contract via :meth:`checkpoint`.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.containment import (
    SELECTIONS,
    Containment,
    merge_view_matches,
    selector,
)
from repro.engine.cache import LRUCache
from repro.engine.cost import EST_MISSING_FRACTION, CandidateCost, CostModel
from repro.engine.executor import (
    EXECUTORS,
    EvaluationSpec,
    run_specs,
)
from repro.engine.plan import (
    DIRECT,
    FALLBACK_REASONS,
    HYBRID,
    MATCHJOIN,
    PLANNER_ADAPTIVE,
    PLANNER_DIRECT,
    PLANNER_FIXED,
    PLANNER_HYBRID,
    PLANNERS,
    REASON_COST_DIRECT,
    REASON_COST_HYBRID,
    REASON_COST_MATCHJOIN,
    REASON_FORCED,
    REASON_ISOLATED_NODES,
    REASON_NOT_CONTAINED,
    STRATEGY_PREFERENCE,
    ExecutionStats,
    PlanChoiceRecord,
    QueryPlan,
    pattern_key,
)
from repro.errors import NotContainedError, NotMaterializedError
from repro.graph.pattern import BoundedPattern, Pattern
from repro.obs import trace
from repro.obs.metrics import (
    DURATION_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph
    from repro.views.maintenance import Delta, DeltaReport, IncrementalViewSet
    from repro.views.view import MaterializedView

log = logging.getLogger(__name__)

#: Plan-choice records retained per engine (newest win; ROADMAP item 3
#: consumes these, and the serving protocol exposes them).
PLAN_LOG_CAPACITY = 256


def snapshot_kind(snapshot) -> str:
    """The telemetry label of a snapshot backend.

    Matched by type name to avoid importing the shard/flat-buffer
    modules (and their segment machinery) just to label telemetry.
    """
    kind = type(snapshot).__name__
    return {
        "ShardedGraph": "sharded",
        "SharedCompactGraph": "shared",
        "CompactGraph": "compact",
    }.get(kind, kind.lower())


@dataclass(frozen=True)
class EngineCheckpoint:
    """An immutable capture of everything one evaluation epoch needs.

    Produced by :meth:`QueryEngine.checkpoint` under the engine lock:
    the frozen snapshot of ``G``, a point-in-time copy of every
    materialized extension (all views freshened first, so readers never
    materialize), and the version stamps that key answers for this
    state.  The serving layer (:mod:`repro.serve`) wraps one checkpoint
    per epoch; because every field is immutable (or treated as such),
    any number of reader threads can evaluate against it while the
    engine itself moves on to the next epoch.
    """

    snapshot: object
    extensions: Mapping[str, MaterializedView]
    view_versions: Mapping[str, int]
    definitions_version: int
    graph_version: int

    def key_material(self, strategy: str, views_used: Tuple[str, ...]) -> Tuple:
        """The answer-key material of this checkpoint for one plan --
        the same shape :class:`QueryEngine` keys its own cache with, so
        answers computed on a checkpoint stay correct across epochs
        (equal stamps always denote equal extension state)."""
        if strategy == MATCHJOIN:
            return ("V", tuple(self.view_versions[name] for name in views_used))
        if strategy == HYBRID:
            return (
                "H",
                tuple(self.view_versions[name] for name in views_used),
                self.graph_version,
            )
        return ("G", self.graph_version)


class QueryEngine:
    """Answer pattern queries end-to-end against a view catalog.

    Parameters
    ----------
    views:
        The view catalog ``V`` (definitions, plus any extensions already
        materialized).  The engine mutates it only to materialize
        missing extensions and to import maintenance refreshes.
    graph:
        Optional data graph ``G``.  Used to materialize missing
        extensions on demand and as the fallback target for queries not
        contained in the views; when absent, such queries raise
        :class:`NotContainedError` (Theorem 1: containment is
        necessary).
    snapshot_path:
        Boot from a saved snapshot directory (or an already-loaded
        :class:`~repro.graph.snapshot.LoadedSnapshot`) instead of a
        live graph: the mmap-backed graph serves as both ``G`` and the
        engine's frozen snapshot (no freeze, no rebuild), persisted
        view packs become the catalog when ``views`` is omitted, and a
        sharded snapshot switches the engine into shards mode
        automatically.  Mutually exclusive with ``graph``.
    selection:
        Default view-selection policy: ``"all"`` (algorithm
        ``contain``), ``"minimal"`` (Fig. 5, Theorem 5) or
        ``"minimum"`` (greedy set-cover, Theorem 6).
    executor / workers:
        Default batch executor (see :data:`EXECUTORS`) and pool width.
    shared_snapshots:
        Freeze ``G`` into a shared-memory flat-buffer snapshot
        (:class:`~repro.graph.flatbuf.SharedCompactGraph`), so
        extensions materialize flat and the whole serving payload
        pickles to segment handles.  Defaults to ``None`` = "on when
        ``executor='process'``" -- pool workers then attach segments
        instead of deserializing the graph; in-process engines skip
        the (small) freeze-time encode unless asked.
    answer_cache_size / containment_cache_size:
        LRU capacities; ``0`` disables the respective cache.
    shards / partitioner:
        With ``shards=N`` the engine partitions ``G`` once
        (strategy named by ``partitioner``, see
        :data:`repro.shard.partitioner.PARTITIONERS`) and plans and
        executes against a
        :class:`~repro.shard.sharded.ShardedGraph`: extensions
        materialize shard-parallel (through the engine's executor) and
        carry the composite snapshot token, direct evaluation runs the
        partial-evaluation matcher, and the sharded snapshot is
        invalidated exactly like the single snapshot.
    planner:
        ``"fixed"`` (default) keeps the binary containment decision;
        ``"adaptive"`` prices MatchJoin over the minimal vs
        greedy-minimum subsets, hybrid rewriting and direct evaluation
        with the engine's :class:`~repro.engine.cost.CostModel` and
        picks the cheapest; ``"direct"`` / ``"hybrid"`` force one
        strategy (baselines).
    cost_model:
        Inject a (possibly shared) :class:`~repro.engine.cost.CostModel`;
        by default each engine calibrates its own from its plan log.
    auto_materialize:
        Opt-in workload-driven materialization: ``True`` (15% byte
        budget) or a float budget fraction of ``|G|``'s bytes.  Spawns
        a :class:`~repro.engine.advisor.WorkloadAdvisor` that ticks
        every ``advisor_interval`` delivered answers, materializing
        hot views and evicting cold ones under the budget
        (``advisor_budget_bytes`` pins an absolute budget instead).
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
        containment_cache_size: int = 512,
        shards: Optional[int] = None,
        partitioner: str = "hash",
        shared_snapshots: Optional[bool] = None,
        registry: Optional[MetricsRegistry] = None,
        planner: str = PLANNER_FIXED,
        cost_model: Optional[CostModel] = None,
        auto_materialize=None,
        advisor_budget_bytes: Optional[int] = None,
        advisor_interval: int = 32,
    ) -> None:
        # Boot from a saved snapshot directory: the mmap-backed graph
        # stands in for a live DataGraph (its ``version`` mirrors the
        # snapshot version, so the engine never tries to re-freeze it)
        # and persisted view packs become the catalog when no ViewSet
        # was passed.  ``snapshot_path`` may also be an already-loaded
        # :class:`~repro.graph.snapshot.LoadedSnapshot` (the CLI loads
        # once and hands it over).
        loaded = None
        if snapshot_path is not None:
            if graph is not None:
                raise ValueError(
                    "pass either graph= or snapshot_path=, not both"
                )
            if hasattr(snapshot_path, "manifest") and hasattr(
                snapshot_path, "graph"
            ):
                loaded = snapshot_path
            else:
                from repro.graph.snapshot import SnapshotStore

                loaded = SnapshotStore.load(snapshot_path)
            graph = loaded.graph
            loaded_shards = getattr(graph, "num_shards", None)
            if loaded_shards is not None:
                if shards is not None and shards != loaded_shards:
                    raise ValueError(
                        f"snapshot at {loaded.path!r} has "
                        f"{loaded_shards} shards; shards={shards} conflicts"
                    )
                shards = loaded_shards
                partitioner = graph.strategy
            elif shards is not None:
                raise ValueError(
                    "shards= conflicts with a compact (unsharded) snapshot"
                )
            if views is None:
                views = loaded.viewset()
        if views is None:
            raise ValueError(
                "QueryEngine requires a view catalog (or a snapshot_path "
                "to adopt one from)"
            )
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
        if planner in (PLANNER_DIRECT, PLANNER_HYBRID) and graph is None:
            raise ValueError(
                f"planner={planner!r} requires a data graph to evaluate on"
            )
        if shards is not None and loaded is None:
            if shards < 1:
                raise ValueError(f"shards must be >= 1, got {shards}")
            from repro.shard.partitioner import PARTITIONERS

            if partitioner not in PARTITIONERS:
                raise ValueError(
                    f"unknown partitioner {partitioner!r}; expected one of "
                    f"{sorted(PARTITIONERS)}"
                )
        self._shards = shards
        self._partitioner = partitioner
        self._views = views
        self._graph = graph
        self._selection = selection
        self._executor = executor
        self._workers = workers
        self._planner = planner
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._shared_snapshots = (
            shared_snapshots
            if shared_snapshots is not None
            else executor == "process"
        )
        # Cumulative process-pool shipping cost (see ship_stats()).
        self._ship_totals = {"batches": 0, "bytes": 0, "seconds": 0.0}
        # Observability: injectable per-engine registry (defaults to the
        # process-global one) and a bounded plan-choice log.  Instrument
        # handles touched per delivered answer are bound once here --
        # the registry lookup (label normalization + dict + lock) is
        # what the per-query overhead budget cannot afford.
        self._registry = registry if registry is not None else get_registry()
        reg = self._registry
        self._m_queries = {
            MATCHJOIN: reg.counter(
                "repro_engine_queries_total", strategy=MATCHJOIN
            ),
            DIRECT: reg.counter(
                "repro_engine_queries_total", strategy=DIRECT
            ),
        }
        self._m_fallbacks: Dict[str, object] = {}
        self._m_cache_hits = reg.counter("repro_engine_answer_cache_hits_total")
        self._m_cache_misses = reg.counter(
            "repro_engine_answer_cache_misses_total"
        )
        self._m_query_seconds = reg.histogram(
            "repro_engine_query_seconds", DURATION_BUCKETS
        )
        self._plan_log: Deque[PlanChoiceRecord] = deque(maxlen=PLAN_LOG_CAPACITY)
        self._containment_cache = LRUCache(containment_cache_size)
        self._answer_cache = LRUCache(answer_cache_size)
        self._maintenance: Optional[IncrementalViewSet] = None
        self._maintenance_dirty = False
        self._maintenance_cursor = 0
        # A CompactGraph, or a ShardedGraph in shards mode.  A
        # snapshot-booted engine starts with the loaded graph pinned as
        # its own snapshot (graph.version == snapshot_version, so
        # _snapshot_locked never rebuilds it).
        self._snapshot = loaded.graph if loaded is not None else None
        self._snapshot_path = loaded.path if loaded is not None else None
        # Serializes every catalog/cache mutation (planning, cache
        # reads/writes, snapshot refresh, materialization, maintenance
        # consumption).  Reentrant: execute -> plan -> snapshot nest.
        # Evaluation itself runs outside the lock on immutable inputs.
        self._lock = threading.RLock()
        # Opt-in workload-driven auto-materialization: a WorkloadAdvisor
        # consuming this engine's plan log, ticking every
        # ``advisor_interval`` delivered answers.  auto_materialize may
        # be True (default 15% budget) or a fraction of |G| bytes.
        self._advisor = None
        if auto_materialize:
            if graph is None:
                raise ValueError(
                    "auto_materialize requires a data graph to "
                    "materialize views from"
                )
            from repro.engine.advisor import WorkloadAdvisor

            fraction = (
                auto_materialize
                if isinstance(auto_materialize, float)
                else None
            )
            self._advisor = WorkloadAdvisor(
                self,
                budget_fraction=fraction if fraction is not None else 0.15,
                budget_bytes=advisor_budget_bytes,
                interval=advisor_interval,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def views(self) -> ViewSet:
        """The engine's view catalog."""
        return self._views

    @property
    def graph(self) -> Optional[DataGraph]:
        """The fallback data graph (``None`` for a views-only engine)."""
        return self._graph

    @property
    def snapshot_path(self) -> Optional[str]:
        """The snapshot directory this engine booted from (``None``
        for live-graph engines)."""
        return self._snapshot_path

    @property
    def planner(self) -> str:
        """The engine's planner mode (see :data:`~repro.engine.plan.PLANNERS`)."""
        return self._planner

    @property
    def cost_model(self) -> CostModel:
        """The calibrated cost model (fed by every delivered answer)."""
        return self._cost_model

    @property
    def advisor(self):
        """The :class:`~repro.engine.advisor.WorkloadAdvisor` when
        ``auto_materialize=`` was requested, else ``None``."""
        return self._advisor

    def graph_units(self) -> float:
        """``|G|`` as cost-model work units (nodes + edges; 0 without
        a graph)."""
        with self._lock:
            return self._graph_units_locked()

    def _graph_units_locked(self) -> float:
        return float(self._graph.size) if self._graph is not None else 0.0

    def _direct_units_locked(self, query: Optional[Pattern]) -> float:
        """Selectivity-aware work estimate for evaluating ``query``
        directly on ``G``.

        Candidate seeding reads, per pattern node, a label bucket or a
        few attribute-column slices of the snapshot it runs on, and the
        fixpoint then walks the adjacency of those candidates, so the
        touched volume scales with the snapshot's ``candidate_bound`` of
        each node condition -- not with ``|G|``.  A query over rare
        labels or selective predicates is far cheaper to answer directly
        than the flat ``|G|`` figure suggests, and pricing that
        selectivity is what lets the adaptive planner prefer direct
        evaluation for highly selective queries even when views could
        answer them.  Wildcard nodes charge the full node count.
        """
        if self._graph is None:
            return 0.0
        if query is None:
            return self._graph_units_locked()
        snapshot = self._snapshot_locked()
        num_nodes = float(snapshot.num_nodes)
        density = 1.0 + (snapshot.num_edges / num_nodes if num_nodes else 0.0)
        bound = snapshot.candidate_bound
        return density * sum(bound(query.condition(u)) for u in query.nodes())

    @property
    def maintenance(self) -> Optional[IncrementalViewSet]:
        """The attached maintenance tracker (``None`` when detached)."""
        return self._maintenance

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this engine reports into."""
        return self._registry

    def plan_log(self, limit: Optional[int] = None) -> List[PlanChoiceRecord]:
        """The most recent plan-choice records, newest first.

        One record per delivered answer (cache hits included), capped at
        :data:`PLAN_LOG_CAPACITY`.  This is the telemetry stream ROADMAP
        item 3's cost-based planner trains on.
        """
        with self._lock:
            records = list(self._plan_log)
        records.reverse()
        return records[:limit] if limit is not None else records

    def _snapshot_kind_locked(self) -> str:
        """Which snapshot backend evaluation runs against right now."""
        if self._snapshot is None:
            return "dict" if self._graph is not None else "none"
        return snapshot_kind(self._snapshot)

    def snapshot(self):
        """The engine's frozen view of ``G`` (``None`` without a graph).

        A :class:`~repro.graph.compact.CompactGraph` normally, or a
        :class:`~repro.shard.sharded.ShardedGraph` in ``shards=N``
        mode.  Frozen (and partitioned) once and reused for
        materialization, direct evaluation and batch execution.  After
        the graph mutates, the stale snapshot is *refreshed* from the
        graph's edge-op journal whenever the gap is pure edge churn --
        reusing unchanged adjacency rows (and, in shards mode,
        rebuilding only the shards owning the updated edges) -- and
        fully rebuilt otherwise.
        """
        if self._graph is None:
            return None
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self):
        snapshot = self._snapshot
        if snapshot is None or snapshot.snapshot_version != self._graph.version:
            if self._shards is not None:
                ops = (
                    None
                    if snapshot is None
                    else self._graph.edge_changes_since(snapshot.snapshot_version)
                )
                if ops is not None:
                    snapshot = snapshot.refreshed(self._graph, ops)
                else:
                    from repro.shard.sharded import ShardedGraph

                    snapshot = ShardedGraph(
                        self._graph,
                        num_shards=self._shards,
                        strategy=self._partitioner,
                    )
            else:
                # freeze() consults the same journal and refreshes the
                # cached CompactGraph in place of a full rebuild.
                snapshot = self._graph.freeze(shared=self._shared_snapshots)
            self._snapshot = snapshot
        return snapshot

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters for both caches."""
        with self._lock:
            return {
                "containment": self._containment_cache.stats.snapshot(),
                "answers": self._answer_cache.stats.snapshot(),
            }

    def ship_stats(self) -> Dict[str, float]:
        """Cumulative process-pool payload shipping cost.

        ``batches`` process-pool batches have serialized ``bytes`` of
        shared payload in ``seconds`` total.  With shared snapshots the
        figures stay near-constant per batch (segment handles ship, not
        buffers); dict payloads grow with the graph.
        """
        with self._lock:
            return dict(self._ship_totals)

    def invalidate(self) -> None:
        """Drop every cached decision and answer explicitly.

        Normally unnecessary: answer keys embed the version stamps of
        the views each plan reads (or the graph version for direct
        plans) and decision keys embed ``definitions_version``, so any
        relevant mutation already strands the stale entries.
        """
        with self._lock:
            self._containment_cache.clear()
            self._answer_cache.clear()

    def materialize_views(self, names: Sequence[str]) -> List[str]:
        """Materialize the named views against the frozen snapshot
        (skipping any already fresh); returns what was materialized.
        The advisor's "promote hot views" action routes through here so
        it shares the engine's lock, snapshot and shard machinery."""
        with self._lock:
            if self._graph is None:
                raise ValueError(
                    "materialize_views() requires a data graph"
                )
            todo = [
                name for name in names
                if not self._views.is_materialized(name)
                or self._views.is_stale(name)
            ]
            if not todo:
                return []
            snapshot = self._snapshot_locked()
            if self._shards is not None:
                from repro.shard.materialize import parallel_materialize

                parallel_materialize(
                    self._views,
                    snapshot,
                    names=todo,
                    executor=self._executor,
                    workers=self._workers,
                )
            else:
                self._views.materialize(snapshot, names=todo)
            return todo

    def evict_extensions(self, names: Sequence[str]) -> List[str]:
        """Drop the named views' cached extensions (definitions stay).

        Safe mid-workload: ``drop_extension`` bumps the view's version
        stamp, so answers cached over the old extension are stranded
        (never served) and in-flight evaluations finish on the
        point-in-time extensions copy they already hold.
        """
        with self._lock:
            dropped = []
            for name in names:
                if name in self._views and self._views.is_materialized(name):
                    self._views.drop_extension(name)
                    dropped.append(name)
            return dropped

    # ------------------------------------------------------------------
    # Maintenance integration
    # ------------------------------------------------------------------
    def attach_maintenance(self, tracker: IncrementalViewSet) -> None:
        """Keep the catalog fresh from an incremental maintenance tracker.

        Subscribes to ``tracker``; updates mark the engine dirty and,
        before the next plan or evaluation, it consumes the pending
        events as one batch: the snapshot is refreshed (not dropped)
        through the graph's edge-op journal, and only the extensions
        the batch actually *changed* are re-imported (bumping only
        those views' version stamps, so cached answers over untouched
        views stay live).  View definitions present in the tracker but
        missing from the catalog are added.  Bounded views in the
        catalog are outside incremental maintenance entirely: each
        consumed batch flags their cached extensions stale (stamp bump
        included, so dependent cached answers are evicted) and the
        engine rematerializes them from the refreshed snapshot on the
        next read.

        If the engine was built with a data graph, it adopts the
        tracker's maintained copy as its evaluation graph -- direct
        evaluation, on-demand materialization and snapshot refresh must
        all follow the same update stream the views do.
        """
        with self._lock:
            if self._maintenance is not None:
                raise ValueError("a maintenance tracker is already attached")
            self._maintenance = tracker
            self._maintenance_cursor = -1  # import everything on first refresh
            tracker.subscribe(self._on_maintenance_event)
            if self._graph is not None and self._graph is not tracker.graph:
                self._graph = tracker.graph
                self._snapshot = None
            self._maintenance_dirty = True
            self._refresh_if_dirty()

    def detach_maintenance(self) -> None:
        """Stop following the attached tracker (keeps current extensions
        and the adopted graph)."""
        with self._lock:
            if self._maintenance is not None:
                self._maintenance.unsubscribe(self._on_maintenance_event)
                self._maintenance = None
                self._maintenance_dirty = False

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a maintenance batch atomically w.r.t. concurrent readers.

        Routes ``delta`` through the attached
        :class:`~repro.views.maintenance.IncrementalViewSet` and
        consumes the resulting events -- snapshot refresh, changed-view
        re-import, bounded-view staleness -- as one batch, all under the
        engine lock.  This is the *only* safe way to drive maintenance
        while other threads call :meth:`execute` / :meth:`answer`:
        driving the tracker directly from a second thread would mutate
        its witness-counter state mid-read.  Readers already past the
        lock (evaluating) finish on the pre-delta extensions and store
        their answers under the pre-delta version stamps, so the cache
        never mixes epochs.
        """
        with self._lock:
            if self._maintenance is None:
                raise ValueError(
                    "no maintenance tracker attached; call "
                    "attach_maintenance() first"
                )
            report = self._maintenance.apply_delta(delta)
            self._refresh_if_dirty()
            return report

    def checkpoint(self) -> EngineCheckpoint:
        """Freshen the whole catalog and capture it as an immutable
        :class:`EngineCheckpoint`.

        Under the engine lock: pending maintenance is consumed, the
        snapshot refreshed, and every missing or stale view (bounded
        views after an update) is rematerialized -- then the snapshot,
        a point-in-time copy of the extensions, and the version stamps
        are captured.  The serving layer calls this once per epoch so
        readers never pay materialization and never observe a
        half-applied update.  Requires a data graph.
        """
        with self._lock:
            if self._graph is None:
                raise ValueError(
                    "checkpoint() requires a data graph to freshen against"
                )
            self._refresh_if_dirty()
            snapshot = self._snapshot_locked()
            names = self._views.names()
            # With an advisor managing the cache, honor its evictions:
            # refresh only what is materialized-but-stale, instead of
            # re-materializing every missing view each epoch (which
            # would undo the advisor's byte budget).  The serving layer
            # degrades plans needing absent extensions to direct
            # evaluation.
            if self._advisor is not None:
                missing = [
                    name for name in names
                    if self._views.is_materialized(name)
                    and self._views.is_stale(name)
                ]
            else:
                missing = [
                    name for name in names
                    if not self._views.is_materialized(name)
                    or self._views.is_stale(name)
                ]
            if missing:
                if self._shards is not None:
                    from repro.shard.materialize import parallel_materialize

                    parallel_materialize(
                        self._views,
                        snapshot,
                        names=missing,
                        executor=self._executor,
                        workers=self._workers,
                    )
                else:
                    self._views.materialize(snapshot, names=missing)
            return EngineCheckpoint(
                snapshot=snapshot,
                extensions=self._views.extensions(),
                view_versions={
                    name: self._views.view_version(name) for name in names
                },
                definitions_version=self._views.definitions_version,
                graph_version=self._graph.version,
            )

    def _on_maintenance_event(self, event) -> None:
        # Events are consumed in batches by _refresh_if_dirty; the
        # snapshot is deliberately *kept* -- it refreshes from the
        # graph's edge-op journal instead of being rebuilt.
        self._maintenance_dirty = True

    def _refresh_if_dirty(self) -> None:
        if not self._maintenance_dirty or self._maintenance is None:
            self._maintenance_dirty = False
            return
        from repro.views.view import bind_extension

        tracker = self._maintenance
        cursor_before = self._maintenance_cursor
        changed = set(tracker.changed_since(cursor_before))
        self._maintenance_cursor = tracker.seq
        self._maintenance_dirty = False
        for name in tracker.names():
            if name not in self._views:
                self._views.add(tracker.definition(name))
                changed.add(name)
        # Bounded views are outside the tracker's maintenance (their
        # extensions shift non-locally with distances): any applied
        # update strands them, so flag them stale -- bumping their
        # version stamps, which evicts dependent cached answers -- and
        # let _spec_for rematerialize them from the refreshed snapshot
        # on the next read.  Gated on updates actually applied (seq
        # advanced past the cursor; a fresh attach maps its -1 sentinel
        # to 0), so attaching to a quiet tracker evicts nothing.
        if tracker.seq > max(cursor_before, 0):
            for name in self._views.names():
                if (
                    self._views.definition(name).is_bounded
                    and self._views.is_materialized(name)
                ):
                    self._views.mark_stale(name)
        # Refresh the snapshot first (cheap, journal-driven) so changed
        # extensions bind straight into the new id space.  Under
        # maintenance the engine keeps a snapshot whenever it has a
        # graph: refreshes are affected-area cheap, and binding the
        # imports keeps MatchJoin on the integer fast path throughout
        # the update stream.
        snapshot = self.snapshot() if self._graph is not None else None
        for name in tracker.names():
            if name not in changed:
                continue
            extension = tracker.extension(name)
            if snapshot is not None:
                extension = bind_extension(extension, snapshot)
            self._views.set_extension(extension)
        if snapshot is not None:
            self._rebind_unchanged(changed, snapshot)

    def _rebind_unchanged(self, changed, snapshot) -> None:
        """Re-stamp unchanged snapshot-bound extensions onto the
        refreshed snapshot's token (no version bump: the match sets are
        identical, only provenance moved), so the whole catalog shares
        one token again and MatchJoin stays in id space."""
        from repro.views.view import bind_extension

        extends = getattr(snapshot, "extends_token", None)
        for name in self._views.names():
            if name in changed or not self._views.is_materialized(name):
                continue
            if self._views.is_stale(name):
                # Stale (bounded) extensions must not be re-stamped onto
                # the fresh token -- that would launder outdated match
                # sets into provenance MatchJoin trusts.  They wait
                # for rematerialization instead.
                continue
            extension = self._views.extension(name)
            compact = extension.compact
            if compact is None or compact.token == snapshot.snapshot_token:
                continue
            try:
                if extends is not None and compact.token == extends:
                    rebound = extension.rebound(snapshot)
                else:
                    rebound = bind_extension(extension, snapshot)
            except KeyError:
                # The extension references nodes the snapshot no longer
                # has (out-of-band mutation): leave it; queries reading
                # this view simply run over node-key rows.
                continue
            self._views.rebind_extension(rebound)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Pattern, selection: Optional[str] = None) -> QueryPlan:
        """Compute (or recall) the evaluation plan for ``query``.

        The containment decision -- the expensive part, Theorem 3 --
        is memoized per (query fingerprint, selection, catalog
        version); repeated shapes skip straight to strategy choice.
        """
        with trace.span("plan") as plan_span:
            with self._lock:
                plan = self._plan_locked(query, selection)
            if plan_span is not None:
                plan_span.set(
                    strategy=plan.strategy,
                    selection=plan.selection,
                    containment_cached=plan.containment_cached,
                    **({"reason": plan.reason} if plan.reason else {}),
                )
            return plan

    def _plan_locked(
        self, query: Pattern, selection: Optional[str] = None
    ) -> QueryPlan:
        self._refresh_if_dirty()
        explicit_selection = selection is not None
        selection = selection or self._selection
        if selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection {selection!r}; expected one of "
                f"{sorted(SELECTIONS)}"
            )
        bounded = isinstance(query, BoundedPattern) or any(
            d.is_bounded for d in self._views
        )
        fingerprint = pattern_key(query)
        if self._planner == PLANNER_FIXED:
            return self._fixed_plan_locked(query, fingerprint, selection, bounded)
        if self._planner == PLANNER_DIRECT:
            return self._forced_direct_plan_locked(
                query, fingerprint, selection, bounded
            )
        if self._planner == PLANNER_HYBRID:
            return self._forced_hybrid_plan_locked(
                query, fingerprint, selection, bounded
            )
        return self._adaptive_plan_locked(
            query, fingerprint, selection, bounded, explicit_selection
        )

    def _containment_locked(
        self, query: Pattern, fingerprint, selection: str, bounded: bool
    ):
        """The (possibly cached) containment decision for one selection.

        Containment depends on view *definitions* only, so its cache
        survives extension refreshes (materialization, maintenance).
        """
        decision_key = (fingerprint, selection, self._views.definitions_version)
        containment = self._containment_cache.get(decision_key)
        cached = containment is not None
        if not cached:
            if self._views.cardinality:
                containment = selector(selection, bounded)(query, self._views)
            else:
                # An empty catalog covers no edge under any policy; do
                # not load a selection algorithm to find that out.
                containment = merge_view_matches(query, ())
            self._containment_cache.put(decision_key, containment)
        return containment, cached

    def _fixed_plan_locked(
        self, query: Pattern, fingerprint, selection: str, bounded: bool
    ) -> QueryPlan:
        """The legacy binary decision: MatchJoin iff ``Q ⊑ V``."""
        containment, cached = self._containment_locked(
            query, fingerprint, selection, bounded
        )
        if not containment.holds:
            strategy, reason = DIRECT, REASON_NOT_CONTAINED
        elif query.isolated_nodes():
            strategy, reason = DIRECT, REASON_ISOLATED_NODES
        else:
            strategy, reason = MATCHJOIN, None
        views_used = containment.views_used() if strategy == MATCHJOIN else ()
        return self._finish_plan(
            query, fingerprint, strategy, selection, containment,
            views_used, bounded, cached, reason, PLANNER_FIXED,
        )

    def _forced_direct_plan_locked(
        self, query: Pattern, fingerprint, selection: str, bounded: bool
    ) -> QueryPlan:
        """``planner="direct"``: always evaluate on ``G`` -- and skip
        the containment check entirely, which is precisely what the
        direct-only baseline should (not) pay for."""
        containment = Containment(
            holds=False,
            mapping={},
            uncovered=frozenset(query.edge_set()),
            view_names=(),
        )
        candidate = self._direct_candidate(query, bounded)
        return self._finish_plan(
            query, fingerprint, DIRECT, selection, containment,
            (), bounded, False, REASON_FORCED, PLANNER_DIRECT,
            candidates=(candidate,),
            cost_estimate=candidate.estimate,
            cost_units=candidate.units,
        )

    def _forced_hybrid_plan_locked(
        self, query: Pattern, fingerprint, selection: str, bounded: bool
    ) -> QueryPlan:
        """``planner="hybrid"``: partial rewriting wherever applicable
        (maximal coverage via the ``"all"`` selection, full λ -- no
        cost-based pruning; that is the adaptive planner's edge);
        bounded and isolated-node patterns degrade to direct
        evaluation."""
        if bounded or query.isolated_nodes():
            return self._forced_direct_plan_locked(
                query, fingerprint, selection, bounded
            )
        containment, cached = self._containment_locked(
            query, fingerprint, "all", bounded
        )
        views_used = containment.views_used()
        candidate = self._hybrid_candidate(query, containment, bounded)
        if not candidate.feasible or not views_used:
            return self._forced_direct_plan_locked(
                query, fingerprint, selection, bounded
            )
        return self._finish_plan(
            query, fingerprint, HYBRID, "all", containment,
            views_used, bounded, cached, REASON_FORCED, PLANNER_HYBRID,
            candidates=(candidate,),
            cost_estimate=candidate.estimate,
            cost_units=candidate.units,
        )

    def _adaptive_plan_locked(
        self,
        query: Pattern,
        fingerprint,
        selection: str,
        bounded: bool,
        explicit_selection: bool,
    ) -> QueryPlan:
        """Price every applicable strategy and pick the cheapest.

        Candidates: MatchJoin over each selection policy's view subset
        (the caller-pinned one when a selection was passed explicitly,
        otherwise the engine default plus ``"minimal"`` and
        ``"minimum"`` -- Theorems 5/6 pick different subsets and
        neither dominates), hybrid rewriting over the maximal
        (``"all"``) coverage -- λ-pruned to the cheapest witness per
        edge, see :meth:`_prune_coverage_locked` -- when the query is
        partially covered (Section VIII), and direct evaluation when a
        graph is present.
        """
        isolated = bool(query.isolated_nodes())
        graph_units = self._graph_units_locked()
        if explicit_selection:
            selections = [selection]
        else:
            selections = list(
                dict.fromkeys([self._selection, "minimal", "minimum"])
            )
        candidates: List[CandidateCost] = []
        containments = {}
        cached_flags = {}
        for sel in selections:
            containment, cached = self._containment_locked(
                query, fingerprint, sel, bounded
            )
            containments[sel] = containment
            cached_flags[sel] = cached
            if containment.holds and not isolated:
                candidates.append(
                    self._matchjoin_candidate(sel, containment, bounded, graph_units)
                )
        if self._graph is not None:
            candidates.append(self._direct_candidate(query, bounded))
            if not bounded and not isolated:
                coverage, cov_cached = self._containment_locked(
                    query, fingerprint, "all", bounded
                )
                total = len(query.edge_set())
                covered = len(frozenset(coverage.mapping))
                if 0 < covered < total:
                    pruned = self._prune_coverage_locked(coverage)
                    containments["all"] = pruned
                    cached_flags["all"] = cov_cached
                    candidates.append(
                        self._hybrid_candidate(query, pruned, bounded)
                    )
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            # Views cannot answer it and there is no graph: keep the
            # legacy direct/fallback shape so _spec_for raises the
            # same NotContainedError / ValueError it always has.
            containment = containments[selection]
            reason = (
                REASON_ISOLATED_NODES
                if containment.holds and isolated
                else REASON_NOT_CONTAINED
            )
            return self._finish_plan(
                query, fingerprint, DIRECT, selection, containment,
                (), bounded, cached_flags[selection], reason,
                PLANNER_ADAPTIVE, candidates=tuple(candidates),
            )
        winner = min(
            feasible,
            key=lambda c: (c.estimate, STRATEGY_PREFERENCE.index(c.strategy)),
        )
        explored = self._explore_candidate(feasible, winner, bounded)
        if explored is not None:
            marked = replace(
                explored,
                note=(explored.note + "; " if explored.note else "")
                + "explore",
            )
            candidates = [
                marked if c is explored else c for c in candidates
            ]
            winner = marked
        if len(feasible) == 1 and winner.strategy == DIRECT:
            # No real choice: views cannot answer this query at all.
            # Keep the legacy fallback reasons (not-contained first,
            # mirroring the fixed planner) for those consumers.
            reason = (
                REASON_NOT_CONTAINED
                if not containments[selection].holds
                else REASON_ISOLATED_NODES
            )
        elif len(feasible) == 1 and winner.strategy == MATCHJOIN:
            reason = None  # contained, nothing else applicable: legacy shape
        else:
            reason = {
                MATCHJOIN: REASON_COST_MATCHJOIN,
                HYBRID: REASON_COST_HYBRID,
                DIRECT: REASON_COST_DIRECT,
            }[winner.strategy]
        sel_used = winner.selection
        containment = containments[sel_used]
        views_used = winner.views
        return self._finish_plan(
            query, fingerprint, winner.strategy, sel_used, containment,
            views_used, bounded, cached_flags[sel_used], reason,
            PLANNER_ADAPTIVE,
            candidates=tuple(candidates),
            cost_estimate=winner.estimate,
            cost_units=winner.units,
        )

    def _explore_candidate(
        self,
        feasible: List[CandidateCost],
        winner: CandidateCost,
        bounded: bool,
    ) -> Optional[CandidateCost]:
        """One-shot exploration: pick a feasible strategy the cost
        model has never observed (at this bounded tier) over the
        estimated winner, so its *real* rate replaces the cold default.

        Without this the planner only ever observes the strategies it
        picks, and a pessimistic cold default can never be corrected --
        e.g. with non-selective views, MatchJoin's optimistic cold rate
        would win forever even when direct evaluation is measurably
        faster.  Exploration is bounded by the strategy count (each
        strategy is explored at most once, then has samples) and never
        picks a candidate that would materialize views as a side
        effect -- whether a cold view is worth materializing is the
        advisor's decision, not the planner's.
        """
        model = self._cost_model
        if model.samples(winner.strategy, bounded) == 0:
            return None  # executing the winner IS the exploration
        rivals = [
            c
            for c in feasible
            if c is not winner
            and model.samples(c.strategy, bounded) == 0
            and "unmaterialized" not in c.note
        ]
        if not rivals:
            return None
        return min(
            rivals,
            key=lambda c: (c.estimate, STRATEGY_PREFERENCE.index(c.strategy)),
        )

    def _matchjoin_candidate(
        self, sel: str, containment, bounded: bool, graph_units: float
    ) -> CandidateCost:
        """Price MatchJoin over ``containment``'s view subset.

        Materialized, fresh extensions contribute their measured sizes;
        a missing (or stale) extension contributes an estimated size
        *plus* a one-shot materialization penalty -- unless the engine
        has no graph to materialize from, which makes the candidate
        infeasible.
        """
        views = containment.views_used()
        ext_units = 0.0
        missing = 0
        for name in views:
            if self._views.is_materialized(name) and not self._views.is_stale(name):
                ext_units += self._views.extension(name).size
            else:
                missing += 1
                ext_units += EST_MISSING_FRACTION * graph_units
        model = self._cost_model
        warm = model.estimate(MATCHJOIN, bounded, ext_units)
        feasible = missing == 0 or self._graph is not None
        estimate = warm + missing * model.materialize_penalty(bounded, graph_units)
        note = f"{missing} view(s) unmaterialized" if missing else ""
        return CandidateCost(
            strategy=MATCHJOIN,
            label=f"matchjoin[{sel}]",
            selection=sel,
            views=views,
            units=ext_units,
            rate=model.rate(MATCHJOIN, bounded),
            estimate=estimate,
            warm_estimate=warm,
            feasible=feasible,
            note=note if feasible else "no graph to materialize from",
        )

    def _direct_candidate(self, query: Pattern, bounded: bool) -> CandidateCost:
        model = self._cost_model
        units = self._direct_units_locked(query)
        estimate = model.estimate(DIRECT, bounded, units)
        return CandidateCost(
            strategy=DIRECT,
            label=DIRECT,
            selection=self._selection,
            views=(),
            units=units,
            rate=model.rate(DIRECT, bounded),
            estimate=estimate,
            warm_estimate=estimate,
            feasible=self._graph is not None,
            note="" if self._graph is not None else "no data graph",
        )

    def _prune_coverage_locked(self, coverage) -> Containment:
        """Cost-based λ pruning: keep one reference per covered edge.

        Every reference in ``λ(e)`` is individually a superset of the
        edge's true match set (Theorem 1's invariant holds per view
        match), so the merge stays correct with any single one -- and
        the merge volume is what hybrid evaluation pays for.  Keeping
        the reference from the smallest fresh extension (unmaterialized
        views price at their estimated size, so they lose to any
        materialized one) turns "covered by everything, including the
        big views" into "covered by the cheapest witness".  This is a
        *cost-model* decision -- only the adaptive planner does it; the
        forced ``planner="hybrid"`` baseline keeps the full λ, the
        paper's literal maximal-coverage rewriting.
        """
        sizes: Dict[str, float] = {}

        def size_of(name: str) -> float:
            if name not in sizes:
                if self._views.is_materialized(name) and not self._views.is_stale(
                    name
                ):
                    sizes[name] = float(self._views.extension(name).size)
                else:
                    sizes[name] = (
                        EST_MISSING_FRACTION * self._graph_units_locked()
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

    def _hybrid_candidate(
        self, query: Pattern, coverage, bounded: bool
    ) -> CandidateCost:
        """Price hybrid rewriting over the covered fragment: extension
        units for the covered edges plus the uncovered fraction of
        ``|G|`` for the edges evaluated directly."""
        graph_units = self._graph_units_locked()
        views = coverage.views_used()
        total = len(query.edge_set())
        covered = len(frozenset(coverage.mapping))
        uncovered_fraction = (total - covered) / total if total else 0.0
        ext_units = 0.0
        missing = 0
        for name in views:
            if self._views.is_materialized(name) and not self._views.is_stale(name):
                ext_units += self._views.extension(name).size
            else:
                missing += 1
                ext_units += EST_MISSING_FRACTION * graph_units
        units = ext_units + uncovered_fraction * self._direct_units_locked(query)
        model = self._cost_model
        warm = model.estimate(HYBRID, bounded, units)
        estimate = warm + missing * model.materialize_penalty(bounded, graph_units)
        feasible = self._graph is not None and bool(views)
        note = f"coverage {covered}/{total}"
        if missing:
            note += f", {missing} view(s) unmaterialized"
        return CandidateCost(
            strategy=HYBRID,
            label=HYBRID,
            selection="all",
            views=views,
            units=units,
            rate=model.rate(HYBRID, bounded),
            estimate=estimate,
            warm_estimate=warm,
            feasible=feasible,
            note=note,
        )

    def _finish_plan(
        self,
        query: Pattern,
        fingerprint,
        strategy: str,
        selection: str,
        containment,
        views_used: Tuple[str, ...],
        bounded: bool,
        cached: bool,
        reason: Optional[str],
        planner: str,
        candidates: Tuple[CandidateCost, ...] = (),
        cost_estimate: Optional[float] = None,
        cost_units: float = 0.0,
    ) -> QueryPlan:
        # The answer key covers exactly what the plan reads: the
        # version stamps of the views MatchJoin consumes, the graph
        # version for direct evaluation, or both for hybrid plans.  An
        # update therefore strands only the answers whose inputs
        # actually changed.
        key = (
            fingerprint,
            selection,
            self._views.definitions_version,
            self._key_material(strategy, views_used),
        )
        return QueryPlan(
            query=query,
            strategy=strategy,
            selection=selection,
            containment=containment,
            views_used=views_used,
            bounded=bounded,
            cache_key=key,
            containment_cached=cached,
            reason=reason,
            planner=planner,
            candidates=candidates,
            cost_estimate=cost_estimate,
            cost_units=cost_units,
        )

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
        with self._lock:
            self._refresh_if_dirty()
            if plan.cache_key[2] != self._views.definitions_version:
                plan = self._plan_locked(plan.query, plan.selection)
            with trace.span("cache.lookup") as cache_span:
                hit = self._answer_cache.get(self._current_key(plan))
                if cache_span is not None:
                    cache_span.set(hit=hit is not None)
            if hit is not None:
                return self._deliver(hit, plan, elapsed=0.0, cache_hit=True)
            spec = self._spec_for(plan)
            # _spec_for may have materialized extensions (bumping version
            # stamps); key the answer on the state actually evaluated,
            # *before* releasing the lock -- a maintenance batch landing
            # mid-evaluation then strands this answer under the old
            # stamps instead of storing it under the new ones.
            key = self._current_key(plan)
            # Freeze lazily: MatchJoin specs never read the graph, so
            # only direct / hybrid specs are worth the freeze cost.
            graph = (
                self._snapshot_locked()
                if spec.kind in (DIRECT, HYBRID)
                else None
            )
            extensions = self._views.extensions()
        with trace.span("evaluate", strategy=plan.strategy, executor="serial"):
            [(_, result, elapsed, _, _)], _ = run_specs(
                [(0, spec)], extensions, graph, executor="serial"
            )
        with self._lock:
            self._answer_cache.put(key, result)
        return self._deliver(result, plan, elapsed=elapsed, cache_hit=False)

    def answer_batch(
        self,
        queries: Sequence[Pattern],
        selection: Optional[str] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[MatchResult]:
        """Answer many queries, in order, sharing plans and caches.

        Identical queries (equal fingerprints) are planned and
        evaluated once per batch; cache hits skip evaluation entirely.
        ``executor`` / ``workers`` override the engine defaults for
        this batch only.
        """
        executor = executor or self._executor
        workers = workers if workers is not None else self._workers
        with self._lock:
            plans = [self._plan_locked(query, selection) for query in queries]
            results: List[Optional[MatchResult]] = [None] * len(plans)

            # Resolve answer-cache hits; deduplicate the remaining work
            # by cache key so each distinct query is evaluated once.
            pending: Dict[Tuple, List[int]] = {}
            specs: List[Tuple[int, EvaluationSpec]] = []
            for index, plan in enumerate(plans):
                hit = self._answer_cache.get(plan.cache_key)
                if hit is not None:
                    results[index] = self._deliver(
                        hit, plan, elapsed=0.0, cache_hit=True,
                        executor=executor,
                    )
                    continue
                if plan.cache_key in pending:
                    pending[plan.cache_key].append(index)
                    continue
                pending[plan.cache_key] = [index]
                specs.append((index, self._spec_for(plan)))
            # Spec building may have materialized extensions (bumping
            # version stamps); key each answer on the state actually
            # evaluated before releasing the lock.
            keys = {index: self._current_key(plans[index]) for index, _ in specs}
            needs_graph = any(
                spec.kind in (DIRECT, HYBRID) for _, spec in specs
            )
            graph = self._snapshot_locked() if needs_graph else None
            extensions = self._views.extensions()

        if specs:
            with trace.span(
                "evaluate.batch", tasks=len(specs), executor=executor
            ):
                completed, ship = run_specs(
                    specs,
                    extensions,
                    graph,
                    executor=executor,
                    workers=workers,
                )
            with self._lock:
                for index, result, _, _, _ in completed:
                    self._answer_cache.put(keys[index], result)
                if ship.bytes:
                    self._ship_totals["batches"] += 1
                    self._ship_totals["bytes"] += ship.bytes
                    self._ship_totals["seconds"] += ship.seconds
                    self._registry.histogram(
                        "repro_engine_ship_bytes", SIZE_BUCKETS
                    ).observe(ship.bytes)
            for index, result, elapsed, pid, _ in completed:
                plan = plans[index]
                for twin in pending[plan.cache_key]:
                    results[twin] = self._deliver(
                        result,
                        plans[twin],
                        elapsed=elapsed if twin == index else 0.0,
                        cache_hit=twin != index,
                        executor=executor,
                        pid=pid,
                        ship=ship if twin == index else None,
                    )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _key_material(self, strategy: str, views_used) -> Tuple:
        """What an answer depends on: per-view version stamps for a
        MatchJoin plan, the graph's mutation version for a direct one,
        and both for a hybrid plan (it reads both)."""
        if strategy == MATCHJOIN:
            return ("V", self._views.version_vector(views_used))
        if strategy == HYBRID:
            return (
                "H",
                self._views.version_vector(views_used),
                self._graph.version if self._graph is not None else -1,
            )
        return ("G", self._graph.version if self._graph is not None else -1)

    def _current_key(self, plan: QueryPlan) -> Tuple:
        """The plan's answer-cache key against the catalog's *current*
        state (on-demand materialization moves version stamps between
        planning and storing the answer; only extensions changed, so
        the plan itself stays valid)."""
        fingerprint, selection, _, _ = plan.cache_key
        return (
            fingerprint,
            selection,
            self._views.definitions_version,
            self._key_material(plan.strategy, plan.views_used),
        )

    def _spec_for(self, plan: QueryPlan) -> EvaluationSpec:
        """Turn a plan into a picklable spec, materializing as needed."""
        if plan.strategy == DIRECT:
            if self._graph is None:
                if plan.reason == REASON_NOT_CONTAINED:
                    raise NotContainedError(plan.containment.uncovered)
                raise ValueError(
                    "plan requires direct evaluation "
                    f"({plan.reason}) but the engine has no data graph"
                )
            return EvaluationSpec(
                kind=DIRECT,
                query=plan.query,
                containment=None,
                needed=(),
                bounded=plan.bounded,
                trace_id=trace.current_span_id(),
            )
        if plan.strategy == HYBRID and self._graph is None:
            raise ValueError(
                "plan requires hybrid evaluation but the engine has no "
                "data graph"
            )
        missing = [
            name for name in plan.views_used
            if not self._views.is_materialized(name)
            or self._views.is_stale(name)
        ]
        if missing:
            if self._graph is None:
                raise NotMaterializedError(
                    f"extensions missing for views {missing!r} and the "
                    "engine has no graph to materialize them from"
                )
            # Materialize against the frozen snapshot: the extensions
            # then carry id-space payloads, so MatchJoin specs take the
            # integer fast path (in-process and in pool workers alike).
            # In shards mode the per-shard local steps additionally run
            # through the engine's executor.
            snapshot = self.snapshot()
            if self._shards is not None:
                from repro.shard.materialize import parallel_materialize

                parallel_materialize(
                    self._views,
                    snapshot,
                    names=missing,
                    executor=self._executor,
                    workers=self._workers,
                )
            else:
                self._views.materialize(snapshot, names=missing)
        return EvaluationSpec(
            kind=plan.strategy,
            query=plan.query,
            containment=plan.containment,
            needed=plan.views_used,
            bounded=plan.bounded,
            trace_id=trace.current_span_id(),
        )

    def _deliver(
        self,
        result: MatchResult,
        plan: QueryPlan,
        elapsed: float,
        cache_hit: bool,
        executor: str = "serial",
        pid: Optional[int] = None,
        ship=None,
    ) -> MatchResult:
        """Wrap a (possibly shared, cached) result with fresh stats,
        appending the plan-choice record and metering the registry."""
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
            plan, elapsed=elapsed, cache_hit=cache_hit, executor=executor
        )
        return MatchResult(result.node_matches, result.edge_matches, stats=stats)

    def record_plan_choice(
        self,
        plan: QueryPlan,
        *,
        elapsed: float,
        cache_hit: bool,
        executor: str = "serial",
    ) -> PlanChoiceRecord:
        """Append a plan-choice record for ``plan`` and meter the
        registry.  ``_deliver`` calls this for every engine-path
        answer; the serving layer calls it for every answer it
        evaluates itself (against pinned epochs, rather than through
        :meth:`execute`).  Takes the engine lock to read the live
        extension sizes and calibrate the cost model, and may run an
        advisor tick -- so never call it from an event loop."""
        with self._lock:
            view_sizes = {
                name: self._views.extension(name).size
                for name in plan.views_used
                if self._views.is_materialized(name)
            }
            record = PlanChoiceRecord.of(
                plan,
                view_sizes=view_sizes,
                snapshot_kind=self._snapshot_kind_locked(),
                elapsed=elapsed,
                cache_hit=cache_hit,
                executor=executor,
            )
            if not cache_hit and elapsed > 0.0:
                # Calibrate the cost model with what actually happened.
                # Fixed-planner answers train it too, so switching an
                # engine (or a shared model) to adaptive starts warm.
                units = plan.cost_units
                if units <= 0.0:
                    if plan.strategy == DIRECT:
                        units = self._direct_units_locked(plan.query)
                    else:
                        units = float(sum(view_sizes.values()))
                        if plan.strategy == HYBRID:
                            total = len(plan.query.edge_set())
                            uncovered = len(plan.containment.uncovered)
                            if total:
                                units += (
                                    uncovered / total
                                ) * self._direct_units_locked(plan.query)
                self._cost_model.observe(
                    plan.strategy, plan.bounded, units, elapsed
                )
        self.log_plan_choice(plan, record)
        if self._advisor is not None:
            self._advisor.maybe_tick()
        return record

    def log_plan_choice(self, plan: QueryPlan, record: PlanChoiceRecord) -> None:
        """Append a finished ``record`` of ``plan`` to the plan log and
        meter the registry -- **without the engine lock** (the bounded
        deque's ``append`` is atomic and every instrument locks itself),
        no cost-model observation and no advisor tick.  This is the
        whole bookkeeping of a served cache hit, whose record the
        serving layer builds once per (epoch, query) from the pinned
        checkpoint; being lock-free it may run on the event loop while
        a maintenance batch holds the engine."""
        self._plan_log.append(record)
        counter = self._m_queries.get(plan.strategy)
        if counter is None:
            counter = self._registry.counter(
                "repro_engine_queries_total", strategy=plan.strategy
            )
            self._m_queries[plan.strategy] = counter
        counter.inc()
        # Only genuine view-insufficiency reasons count as fallbacks;
        # cost-model reasons are choices, not failures to use views.
        if plan.reason in FALLBACK_REASONS:
            fallback = self._m_fallbacks.get(plan.reason)
            if fallback is None:
                fallback = self._registry.counter(
                    "repro_engine_fallbacks_total", reason=plan.reason
                )
                self._m_fallbacks[plan.reason] = fallback
            fallback.inc()
        if record.cache_hit:
            self._m_cache_hits.inc()
        else:
            self._m_cache_misses.inc()
            self._m_query_seconds.observe(record.elapsed)
        current = trace.current_span()
        if current is not None:
            current.set(
                strategy=plan.strategy,
                cache_hit=record.cache_hit,
                snapshot_kind=record.snapshot_kind,
            )

    def __repr__(self) -> str:
        sharding = (
            f", shards={self._shards}" if self._shards is not None else ""
        )
        return (
            f"QueryEngine(views={self._views.cardinality}, "
            f"graph={'yes' if self._graph is not None else 'no'}, "
            f"selection={self._selection!r}, executor={self._executor!r}"
            f"{sharding})"
        )
