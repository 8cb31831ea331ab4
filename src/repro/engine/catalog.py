"""The Catalog: the one place that keeps ``V(G)`` fresh.

The paper's three stages (Section II-B) are functions of ``(Qs, V,
V(G))``; what a deployment adds is an owner of that state.  The view
catalog, the data graph, its frozen snapshot, the maintenance cursor
and **the lock** live in :class:`Catalog`, and every mutation of any of
them is one of its methods.

Readers get the state as a :class:`~repro.engine.planner.PlanningState`
in one of two forms.  The live catalog: mutations and :meth:`~Catalog.snapshot`
lock; the planning reads are single looks at live state that take no
lock, so an owner that needs several to agree (a plan; the specs, inputs
and answer keys of a batch) holds :attr:`Catalog.lock` around them.  Or
an :class:`EngineCheckpoint`: an immutable capture any number of threads
plan and evaluate on with no lock (what the serving layer pins per
epoch).

The snapshot is frozen once and *refreshed* through the graph's edge-op
journal, so the id space -- and MatchJoin's integer fast path --
survives the update stream.  Booted from a sharded snapshot directory
it is that directory's :class:`~repro.shard.sharded.ShardedGraph`,
whose composite token makes sharded extensions indistinguishable from
single-snapshot ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.engine.planner import PlanningState
from repro.errors import NotMaterializedError
from repro.views.storage import ViewSet

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph
    from repro.views.maintenance import Delta, DeltaReport, IncrementalViewSet
    from repro.views.view import MaterializedView, ViewDefinition


def snapshot_kind(snapshot) -> str:
    """The telemetry label of a snapshot backend.

    Matched by type name to avoid importing the shard/flat-buffer
    modules (and their segment machinery) just to label telemetry.
    """
    kind = type(snapshot).__name__
    return {
        "ShardedGraph": "sharded",
        "CompactGraph": "compact",
    }.get(kind, kind.lower())


@dataclass(frozen=True)
class Evaluated:
    """What an evaluation reads, captured under the catalog lock: the
    frozen snapshot (``None`` when nothing reads ``G``), a point-in-time
    copy of the extensions, and the backend's telemetry label.  An
    answer's plan-choice record comes off this, however far the live
    catalog has moved on by then."""

    snapshot: object
    extensions: Mapping[str, MaterializedView]
    snapshot_kind: str

    def extension_size(self, name: str) -> Optional[int]:
        extension = self.extensions.get(name)
        return extension.size if extension is not None else None


@dataclass(frozen=True)
class EngineCheckpoint(Evaluated, PlanningState):
    """Everything one evaluation epoch needs, immutable: besides what
    is :class:`Evaluated` (every extension freshened first, so readers
    never materialize), the definitions and the version stamps that key
    answers for this state.  A :class:`PlanningState` that cannot
    materialize -- a plan made on it never reads an extension it lacks
    -- so any number of reader threads plan and evaluate against it
    while the catalog moves on to the next epoch."""

    definitions: Tuple[ViewDefinition, ...]
    view_versions: Mapping[str, int]
    definitions_version: int
    graph_version: int

    can_materialize = False

    def view_version(self, name: str) -> int:
        return self.view_versions[name]


class Catalog(PlanningState):
    """Views + graph + frozen snapshot + maintenance cursor + the lock.

    Parameters are :class:`~repro.engine.engine.QueryEngine`'s.  With ``snapshot_path`` (a directory, or an already-loaded
    :class:`~repro.graph.snapshot.LoadedSnapshot`) the mmap-backed
    graph stands in for a live ``graph`` *and* is the frozen snapshot
    (its ``version`` mirrors the snapshot's: never re-frozen),
    and persisted view packs become the catalog when ``views`` is
    omitted.
    """

    def __init__(
        self,
        views: Optional[ViewSet] = None,
        graph: Optional[DataGraph] = None,
        snapshot_path=None,
    ) -> None:
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
            if views is None:
                views = loaded.viewset()
        if views is None:
            raise ValueError(
                "QueryEngine requires a view catalog (or a snapshot_path "
                "to adopt one from)"
            )
        #: The view catalog; also the planning state's ``definitions``.
        self.views = self.definitions = views
        self.view_version = views.view_version
        #: The evaluation graph (``None`` for a views-only catalog).
        self.graph = graph
        #: The snapshot directory booted from (``None`` for live graphs).
        self.snapshot_path: Optional[str] = loaded.path if loaded else None
        self._snapshot = loaded.graph if loaded else None
        #: Serializes every mutation of the state above.  Reentrant:
        #: plan -> sync -> snapshot nest.  Evaluation runs outside it.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    # The planning state (reads)
    # ------------------------------------------------------------------
    @property
    def definitions_version(self) -> int:
        return self.views.definitions_version

    @property
    def graph_version(self) -> Optional[int]:
        return self.graph.version if self.graph is not None else None

    @property
    def can_materialize(self) -> bool:
        return self.graph is not None

    @property
    def snapshot_kind(self) -> str:
        """Which snapshot backend evaluation runs against right now."""
        snapshot = self._snapshot
        if snapshot is None:
            return "dict" if self.graph is not None else "none"
        return snapshot_kind(snapshot)

    def extension_size(self, name: str) -> Optional[int]:
        extension = self.views.fresh_extension(name)
        return extension.size if extension is not None else None

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self):
        """The frozen view of ``G`` (``None`` without a graph): a
        :class:`~repro.graph.compact.CompactGraph`, or the
        :class:`~repro.shard.sharded.ShardedGraph` a sharded snapshot
        directory booted.

        Frozen once and reused for materialization, direct evaluation
        and batch execution.  After the graph mutates it is *refreshed*
        from the edge-op journal whenever the gap is pure edge churn --
        reusing unchanged adjacency rows -- and fully rebuilt otherwise
        (``DataGraph.freeze`` decides).
        """
        if self.graph is None:
            return None
        with self.lock:
            snapshot = self._snapshot
            if snapshot is None or snapshot.snapshot_version != self.graph.version:
                snapshot = self._snapshot = self.graph.freeze()
            return snapshot

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def materialize(self, names: Sequence[str]) -> List[str]:
        """Materialize whichever of ``names`` are missing or stale and
        return them.  Against the frozen snapshot, so the extensions
        carry id-space payloads and MatchJoin takes the integer fast
        path; on a sharded snapshot views are evaluated shard by shard."""
        with self.lock:
            views = self.views
            todo = [n for n in names if views.fresh_extension(n) is None]
            if not todo:
                return todo
            if self.graph is None:
                raise NotMaterializedError(
                    f"extensions missing for views {todo!r} and the "
                    "engine has no graph to materialize them from"
                )
            views.materialize(self.snapshot(), names=todo)
            return todo

    def evict(self, names: Sequence[str]) -> List[str]:
        """Drop the named views' cached extensions (definitions stay).
        Safe mid-workload: the drop bumps the view's version stamp, so
        answers cached over the old extension are stranded, and
        in-flight evaluations finish on the copy they already hold."""
        with self.lock:
            views = self.views
            dropped = [
                name for name in names
                if name in views and views.is_materialized(name)
            ]
            for name in dropped:
                views.drop_extension(name)
            return dropped

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def attach_maintenance(self, tracker: IncrementalViewSet) -> None:
        """Follow ``tracker`` (see :meth:`ViewSet.follow`) and adopt
        its maintained graph copy as the evaluation graph -- direct
        evaluation, materialization and snapshot refresh must follow
        the update stream the views do.  Whatever it applies from here
        on, in batches or driven directly, the next plan or evaluation
        consumes first (:meth:`sync`): only the views it *changed* are
        re-imported and re-stamped, so cached answers over the others
        stay live; bounded views, which it cannot maintain, are flagged
        stale and rematerialized on their next read."""
        with self.lock:
            self.views.follow(tracker)
            if self.graph is not None and self.graph is not tracker.graph:
                self.graph = tracker.graph
                self._snapshot = None
            self.sync()

    def sync(self) -> None:
        """Consume whatever the tracker applied since the last sync.
        The cursor is the :class:`ViewSet`'s; comparing it on every
        read is what lets callers drive the tracker directly
        (``tracker.delete_edge(...)`` then ``engine.answer``).  The
        catalog adds what needs a snapshot
        (:func:`repro.engine.maintenance.consume`)."""
        if self.views.maintenance_pending():
            from repro.engine.maintenance import consume

            with self.lock:
                consume(self)

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a maintenance batch atomically w.r.t. concurrent
        readers: tracker update, snapshot refresh, changed-view
        re-import and bounded-view staleness, all under the lock."""
        with self.lock:
            tracker = self.views.maintenance
            if tracker is None:
                raise ValueError(
                    "no maintenance tracker attached; call "
                    "attach_maintenance() first"
                )
            report = tracker.apply_delta(delta)
            self.sync()
            return self.views.report_stale(report)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> EngineCheckpoint:
        """Freshen the catalog and capture it as an immutable
        :class:`EngineCheckpoint` (requires a data graph): pending
        maintenance is consumed, the snapshot refreshed, and every
        missing or stale view rematerialized."""
        with self.lock:
            if self.graph is None:
                raise ValueError(
                    "checkpoint() requires a data graph to freshen against"
                )
            self.sync()
            views = self.views
            names = views.names()
            self.materialize(names)
            snapshot = self.snapshot()
            return EngineCheckpoint(
                snapshot=snapshot,
                extensions=views.extensions(),
                snapshot_kind=snapshot_kind(snapshot),
                definitions=tuple(views),
                view_versions={
                    name: views.view_version(name) for name in names
                },
                definitions_version=views.definitions_version,
                graph_version=self.graph.version,
            )
