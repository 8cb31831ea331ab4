"""A named cache of view definitions and their materialized extensions.

``ViewSet`` plays the role of ``V`` / ``V(G)`` in the paper: an ordered
collection of view definitions, optionally materialized against a data
graph, with the size accounting used throughout Section VII ("the views
take 14.4% of ... the entire Amazon dataset", "no more than 4% of the
size of the Youtube graph").
"""

from __future__ import annotations

import logging
import warnings
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple


log = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.digraph import DataGraph
    from repro.views.maintenance import Delta, DeltaReport, IncrementalViewSet
    from repro.views.view import MaterializedView, ViewDefinition


class ViewSet:
    """An ordered, name-keyed set of views with optional extensions.

    Every mutation -- adding a definition, materializing, installing or
    dropping an extension -- bumps :attr:`version`, a monotonically
    increasing counter, and stamps the touched view's *per-view*
    version (:meth:`view_version`) with it.  Consumers that cache
    anything derived from the catalog (notably
    :class:`~repro.engine.engine.QueryEngine`) embed version stamps in
    their cache keys -- the engine keys each answer on the
    :meth:`version_vector` of exactly the views its plan reads, so a
    maintenance update only strands the answers that actually depended
    on a changed view.

    A ViewSet also holds the one maintenance cursor: :meth:`track`
    builds an :class:`~repro.views.maintenance.IncrementalViewSet` over
    the current definitions (:meth:`follow` takes an existing one), and
    :meth:`apply_delta` / :meth:`import_maintenance` re-import only the
    extensions updates changed (so unchanged views keep their version
    stamps and dependent cached answers stay live).
    """

    def __init__(self, definitions: Optional[Iterable[ViewDefinition]] = None) -> None:
        self._definitions: Dict[str, ViewDefinition] = {}
        self._extensions: Dict[str, MaterializedView] = {}
        self._version = 0
        self._definitions_version = 0
        self._view_versions: Dict[str, int] = {}
        self._maintenance: Optional["IncrementalViewSet"] = None
        self._maintenance_seq = 0
        self._stale: Set[str] = set()
        for definition in definitions or ():
            self.add(definition)

    @property
    def version(self) -> int:
        """Mutation counter: increases on every definition or extension
        change (the cache-invalidation token for cached *answers*)."""
        return self._version

    @property
    def definitions_version(self) -> int:
        """Counter bumped only when the definitions change.  Containment
        decisions (Theorem 3) depend on definitions alone, so caches of
        λ mappings key on this and survive extension refreshes."""
        return self._definitions_version

    def view_version(self, name: str) -> int:
        """The per-view version stamp of view ``name``.

        Stamps are the value of the global :attr:`version` counter at
        the view's last definition/extension change, so they are unique
        across views and across a view's whole lifetime (including
        remove / re-add cycles) -- two equal stamps always denote the
        same extension state.  Raises ``KeyError`` for unknown views.
        """
        if name not in self._definitions:
            raise KeyError(f"unknown view {name!r}")
        return self._view_versions[name]

    def version_vector(self, names: Optional[Iterable[str]] = None) -> Tuple[int, ...]:
        """The per-view stamps of the given views (default: all), in
        the given order -- the cache-key material for consumers that
        read exactly those views."""
        return tuple(
            self.view_version(name)
            for name in (names if names is not None else self._definitions)
        )

    def _stamp(self, name: str) -> None:
        self._version += 1
        self._view_versions[name] = self._version

    # ------------------------------------------------------------------
    # Definition management
    # ------------------------------------------------------------------
    def add(self, definition: ViewDefinition) -> None:
        """Register a new view definition (names must be unique)."""
        if definition.name in self._definitions:
            raise ValueError(f"duplicate view name {definition.name!r}")
        self._definitions[definition.name] = definition
        self._stamp(definition.name)
        self._definitions_version += 1

    def remove(self, name: str) -> None:
        """Evict view ``name``: drop the definition *and* any cached
        extension.

        Raises ``KeyError`` when no such definition exists.  Bumps both
        :attr:`version` and :attr:`definitions_version` -- removing a
        view can change containment decisions (a query that was only
        coverable through it must now plan differently), so cached λ
        mappings and cached answers both become unreachable.
        """
        if name not in self._definitions:
            raise KeyError(f"unknown view {name!r}")
        del self._definitions[name]
        self._extensions.pop(name, None)
        self._view_versions.pop(name, None)
        self._stale.discard(name)
        self._version += 1
        self._definitions_version += 1

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def __len__(self) -> int:
        return len(self._definitions)

    def __iter__(self) -> Iterator[ViewDefinition]:
        return iter(self._definitions.values())

    def definition(self, name: str) -> ViewDefinition:
        """The definition registered under ``name`` (KeyError if absent)."""
        return self._definitions[name]

    def definitions(self) -> List[ViewDefinition]:
        """All definitions, in registration order (the ``V`` of the paper)."""
        return list(self._definitions.values())

    def names(self) -> List[str]:
        """View names in registration order."""
        return list(self._definitions)

    def subset(self, names: Iterable[str]) -> "ViewSet":
        """A new ViewSet over the given definitions, sharing extensions."""
        chosen = ViewSet(self._definitions[name] for name in names)
        for name in chosen.names():
            if name in self._extensions:
                chosen._extensions[name] = self._extensions[name]
        return chosen

    # ------------------------------------------------------------------
    # Size accounting (Table I)
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """``card(V)``: number of view definitions."""
        return len(self._definitions)

    @property
    def definition_size(self) -> int:
        """``|V|``: total size of all view definitions."""
        return sum(d.size for d in self._definitions.values())

    @property
    def extension_size(self) -> int:
        """``|V(G)|``: total size of all materialized extensions."""
        return sum(e.size for e in self._extensions.values())

    def extension_fraction(self, graph: DataGraph) -> float:
        """``|V(G)| / |G|`` -- the fractions quoted in Section VII."""
        return self.extension_size / graph.size if graph.size else 0.0

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, graph: DataGraph, names: Optional[Iterable[str]] = None) -> None:
        """Materialize (cache) extensions for the given views on ``graph``.

        Evaluates each view on ``G`` and stores ``V(G)`` (Section II-B);
        defaults to all definitions.  Bumps :attr:`version`.

        ``graph`` may be a mutable :class:`DataGraph`, a frozen
        :class:`~repro.graph.compact.CompactGraph`, or a
        :class:`~repro.shard.sharded.ShardedGraph`.  Against a snapshot
        (sharded or not), extensions carry their match sets as id rows
        in its id space (the snapshot token recorded in
        :attr:`snapshot_token`), which is what lets MatchJoin sweep
        stored integer rows at query time.  For shard-parallel
        materialization with a worker pool, use
        :func:`repro.shard.materialize.parallel_materialize`, which
        installs the same extensions through :meth:`set_extension`.
        """
        from repro.views.view import materialize

        for name in names if names is not None else list(self._definitions):
            started = perf_counter()
            self._extensions[name] = materialize(self._definitions[name], graph)
            self._stale.discard(name)
            self._stamp(name)
            log.debug(
                "materialized view %s: %d items in %.1f ms",
                name,
                self._extensions[name].size,
                (perf_counter() - started) * 1e3,
            )

    @property
    def snapshot_token(self) -> Optional[int]:
        """The snapshot token shared by *every* materialized extension,
        or ``None`` when there are no extensions, any extension is not
        snapshot-bound (materialized from a mutable graph), or
        the extensions come from different snapshots.  Derived from the
        extensions themselves, so partial re-materializations can never
        misreport the catalog's provenance."""
        token: Optional[int] = None
        if not self._extensions:
            return None
        for extension in self._extensions.values():
            compact = extension.compact
            if compact is None:
                return None
            if token is None:
                token = compact.token
            elif compact.token != token:
                return None
        return token

    def is_materialized(self, name: str) -> bool:
        """Whether view ``name`` currently has a cached extension."""
        return name in self._extensions

    def extension(self, name: str) -> MaterializedView:
        """The cached extension ``V(G)`` of view ``name``.

        Raises ``KeyError`` when the view was never materialized --
        MatchJoin runs on extensions only (Theorem 1), so there is no
        silent fallback to evaluating the view.
        """
        if name not in self._extensions:
            raise KeyError(
                f"view {name!r} has no materialized extension; call "
                "materialize() first"
            )
        return self._extensions[name]

    def extensions(self) -> Dict[str, MaterializedView]:
        """A name-keyed snapshot of every cached extension."""
        return dict(self._extensions)

    def set_extension(self, extension: MaterializedView) -> None:
        """Install an externally built/maintained extension.

        The entry point for incremental maintenance (Section I cites
        [15]): a fresh extension replaces the stale one and bumps
        :attr:`version` so dependent caches invalidate.
        """
        if extension.name not in self._definitions:
            raise KeyError(f"unknown view {extension.name!r}")
        self._extensions[extension.name] = extension
        self._stale.discard(extension.name)
        self._stamp(extension.name)

    def rebind_extension(self, extension: MaterializedView) -> None:
        """Install a *logically identical* extension without bumping any
        version counter.

        The provenance-only sibling of :meth:`set_extension`: the match
        sets must be unchanged and only the id-space payload differs
        (re-stamped onto a refreshed snapshot via
        :meth:`~repro.views.flatpack.FlatExtension.rebound` or
        :func:`~repro.views.view.bind_extension`).  Because no version
        moves, cached answers over the view stay live -- which is the
        point: snapshot refreshes must not masquerade as data changes.
        """
        if extension.name not in self._definitions:
            raise KeyError(f"unknown view {extension.name!r}")
        if extension.name not in self._extensions:
            raise KeyError(
                f"view {extension.name!r} has no extension to rebind"
            )
        self._extensions[extension.name] = extension

    def drop_extension(self, name: str) -> None:
        """Forget a cached extension (no-op when not materialized)."""
        if self._extensions.pop(name, None) is not None:
            self._stale.discard(name)
            self._stamp(name)

    # ------------------------------------------------------------------
    # Staleness (the bounded-view maintenance contract)
    # ------------------------------------------------------------------
    def mark_stale(self, name: str) -> None:
        """Flag view ``name``'s cached extension as stale and bump its
        version stamp (evicting dependent cached answers).

        The staleness contract exists for **bounded views**: their
        extensions shift non-locally under edge updates (every
        distance in ``I(V)`` can change), so the maintenance pipeline
        cannot refresh them incrementally -- instead it marks them
        stale, and readers (notably
        :class:`~repro.engine.engine.QueryEngine`) rematerialize a
        stale view from the refreshed graph before the next use.  The
        extension object itself is *kept* (``extension(name)`` still
        returns it) so that callers who explicitly want the
        last-materialized state can read it; :meth:`is_stale` is the
        signal that it no longer reflects the graph.
        """
        if name not in self._definitions:
            raise KeyError(f"unknown view {name!r}")
        if name in self._extensions:
            self._stale.add(name)
            self._stamp(name)

    def is_stale(self, name: str) -> bool:
        """Whether view ``name``'s cached extension is flagged stale
        (always ``False`` when nothing is materialized)."""
        return name in self._stale

    def fresh_extension(self, name: str) -> Optional[MaterializedView]:
        """View ``name``'s cached extension if a reader may use it as
        is -- materialized and not flagged stale -- else ``None``.
        (Flag first: an unlocked reader racing a mutation then gets an
        answer that was true at some instant of the call.)"""
        return None if name in self._stale else self._extensions.get(name)

    def stale_views(self) -> Tuple[str, ...]:
        """Names of every stale-flagged view, in registration order."""
        return tuple(name for name in self._definitions if name in self._stale)

    # ------------------------------------------------------------------
    # Maintenance backend (the delta pipeline's view layer)
    # ------------------------------------------------------------------
    @property
    def maintenance(self) -> Optional["IncrementalViewSet"]:
        """The followed maintenance backend (``None`` until
        :meth:`track` / :meth:`follow`)."""
        return self._maintenance

    def follow(self, tracker: "IncrementalViewSet") -> None:
        """Keep this catalog's extensions fresh from ``tracker``.  The
        pull cursor lives here and nowhere else: the next
        :meth:`import_maintenance` takes every maintained view's
        extension (definitions the catalog lacks are added first),
        later ones only what updates changed since.  Re-following the
        same tracker is a no-op; a second one is rejected."""
        if self._maintenance is tracker:
            return
        if self._maintenance is not None:
            raise ValueError("a maintenance backend is already attached")
        for name in tracker.names():
            if name not in self._definitions:
                self.add(tracker.definition(name))
        self._maintenance = tracker
        self._maintenance_seq = -1  # the first import takes everything

    def unfollow(self) -> None:
        """Stop following the tracker (extensions stay as imported)."""
        self._maintenance = None

    def track(
        self, graph: DataGraph, *, budget: Optional[int] = None
    ) -> "IncrementalViewSet":
        """Build a maintenance backend over (a copy of) ``graph`` for
        the current simulation definitions, :meth:`follow` it and
        import its freshly materialized extensions.  From here on
        :meth:`apply_delta` keeps the cached extensions consistent
        under edge updates; ``budget`` is the affected-area budget for
        incremental insertions.

        Bounded views cannot be maintained incrementally (their
        extensions shift non-locally with distances) and are **not
        tracked**: the tracker records their names in
        ``skipped_bounded`` and a :class:`UserWarning` says so.  After
        each applied update they are flagged stale (:meth:`is_stale`,
        stamp bumped) and must be rematerialized before the next read.
        Definitions added after this call are likewise not maintained.
        """
        from repro.views.maintenance import IncrementalViewSet

        if self._maintenance is not None:
            raise ValueError("a maintenance backend is already attached")
        tracker = IncrementalViewSet(
            self._definitions.values(), graph, budget=budget
        )
        if tracker.skipped_bounded:
            warnings.warn(
                "bounded views are not maintained incrementally and were "
                f"skipped by track(): {', '.join(tracker.skipped_bounded)}; "
                "apply_delta() will flag them stale -- rematerialize "
                "before reading them after updates",
                UserWarning,
                stacklevel=2,
            )
        self.follow(tracker)
        self.import_maintenance()
        return tracker

    def apply_delta(self, delta: "Delta") -> "DeltaReport":
        """Apply an update batch through the followed backend: route
        it to the tracker, then pull the refreshes in
        (:meth:`import_maintenance`).  Each changed view's import bumps
        its version stamp, so cached answers reading it become
        unreachable while answers over untouched views stay live."""
        if self._maintenance is None:
            raise ValueError(
                "no maintenance tracker followed; call track(graph) (or "
                "the engine's attach_maintenance()) first"
            )
        report = self._maintenance.apply_delta(delta)
        self.import_maintenance()
        return self.report_stale(report)

    def report_stale(self, report: "DeltaReport") -> "DeltaReport":
        """``report`` of a batch just imported, completed: when the
        batch changed the graph at all, the bounded views the import
        flagged stale become its ``stale_bounded``."""
        stale = tuple(
            name
            for name, definition in self._definitions.items()
            if definition.is_bounded and name in self._stale
        )
        if not (report.applied and stale):
            return report
        from repro.obs.metrics import get_registry

        get_registry().counter(
            "repro_maintenance_stale_bounded_total"
        ).inc(len(stale))
        log.info(
            "delta left %d bounded view(s) stale: %s",
            len(stale), ", ".join(sorted(map(str, stale))),
        )
        return report._replace(stale_bounded=stale)

    def maintenance_pending(self) -> bool:
        """Whether the followed tracker has applied updates (in
        batches or driven directly) not yet imported."""
        tracker = self._maintenance
        return tracker is not None and tracker.seq != self._maintenance_seq

    def import_maintenance(self, bind=None) -> List[str]:
        """Pull pending extension refreshes from the followed backend;
        returns the names imported.  ``bind`` maps each refreshed
        extension to the one installed (an owner holding a snapshot
        binds it into id space), so a changed view is stamped exactly
        once.  :meth:`apply_delta` calls this; so do consumers that
        drive the tracker directly (``insert_edge`` / ``delete_edge``).
        If the tracker applied *any* update since the last import,
        every materialized bounded view is flagged stale here -- the
        one choke point of the batch and the direct-drive paths."""
        if not self.maintenance_pending():
            return []
        tracker = self._maintenance
        cursor = self._maintenance_seq
        self._maintenance_seq = tracker.seq
        changed = tracker.changed_since(cursor)
        for name in changed:
            extension = tracker.extension(name)
            self.set_extension(bind(extension) if bind else extension)
        if tracker.seq > max(cursor, 0):
            for name, definition in self._definitions.items():
                if definition.is_bounded and name in self._extensions:
                    self.mark_stale(name)
        return changed

    def __repr__(self) -> str:
        return (
            f"ViewSet(card={self.cardinality}, "
            f"materialized={len(self._extensions)})"
        )
