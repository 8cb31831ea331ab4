"""The Catalog: the one place that keeps ``V(G)`` fresh.

The paper's three stages (Section II-B) are functions of ``(Qs, V,
V(G))``; what a deployment adds is an owner of that state.  The view
catalog, the data graph, its frozen snapshot, the maintenance tracker
(which updates that same graph in place) with its cursor, and **the
lock** live in :class:`Catalog`, and every mutation of any of them is
one of its methods.

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
    """Views + graph + frozen snapshot + maintenance tracker and cursor
    + the lock.

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
        #: The attached tracker (``None`` until
        #: :meth:`attach_maintenance`) and its cursor: the ``seq`` this
        #: catalog last imported at.
        self.maintenance: Optional[IncrementalViewSet] = None
        self._seq = 0
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
        """Keep the catalog fresh from ``tracker``, which must maintain
        this catalog's own, mutable graph (else ``ValueError``; a
        snapshot-booted engine's is immutable) -- one ``G`` for the
        views, direct evaluation and snapshot refresh alike.  Definitions
        the catalog lacks are added, and the first sync imports every
        maintained extension (as it is: the tracker froze this graph).
        Re-attaching the same tracker is a no-op; a second is rejected."""
        with self.lock:
            if self.maintenance is tracker:
                return
            if self.maintenance is not None:
                raise ValueError("a maintenance tracker is already attached")
            if tracker.graph is not self.graph:
                raise ValueError(
                    "the tracker must maintain the engine's own graph: "
                    "build it as IncrementalViewSet(definitions, engine.graph)"
                )
            if not hasattr(self.graph, "add_edge"):
                kind = type(self.graph).__name__
                raise ValueError(f"cannot maintain an immutable {kind}")
            for name in tracker.names():
                if name not in self.views:
                    self.views.add(tracker.definition(name))
            self.maintenance = tracker
            self._seq = -1  # the first import takes everything
            self.sync()

    def sync(self) -> Tuple[str, ...]:
        """Consume whatever the tracker applied since the cursor
        (:func:`repro.engine.maintenance.consume`) and return the
        bounded views that left stale.  Every read calls it, so a batch
        applied straight to the tracker (``tracker.apply_delta``) is
        picked up before the next plan or evaluation."""
        tracker = self.maintenance
        if tracker is None or tracker.seq == self._seq:
            return ()
        from repro.engine.maintenance import consume

        with self.lock:
            cursor, self._seq = self._seq, tracker.seq
            return consume(self.views, tracker, cursor, self.snapshot())

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a maintenance batch atomically w.r.t. concurrent
        readers: tracker update, snapshot refresh, changed-view
        re-import and bounded-view staleness, all under the lock."""
        with self.lock:
            if self.maintenance is None:
                raise ValueError(
                    "no maintenance tracker attached; call "
                    "attach_maintenance() first"
                )
            report = self.maintenance.apply_delta(delta)
            return report._replace(stale_bounded=self.sync())

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
