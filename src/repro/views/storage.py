"""A named cache of view definitions and their materialized extensions.

``ViewSet`` plays the role of ``V`` / ``V(G)`` in the paper: an ordered
collection of view definitions, optionally materialized against a data
graph, with the size accounting used throughout Section VII ("the views
take 14.4% of ... the entire Amazon dataset", "no more than 4% of the
size of the Youtube graph").
"""

from __future__ import annotations

import logging
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple


log = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.digraph import DataGraph
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

    A ViewSet is plain state: incremental maintenance is owned by the
    engine's :class:`~repro.engine.catalog.Catalog`, which holds the
    tracker and its cursor and installs only the extensions an update
    changed (:meth:`set_extension`), so unchanged views keep their
    stamps and dependent cached answers stay live.
    """

    def __init__(self, definitions: Optional[Iterable[ViewDefinition]] = None) -> None:
        self._definitions: Dict[str, ViewDefinition] = {}
        self._extensions: Dict[str, MaterializedView] = {}
        self._version = 0
        self._definitions_version = 0
        self._view_versions: Dict[str, int] = {}
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
        :class:`~repro.shard.sharded.ShardedGraph`; every view is
        evaluated on ``graph.freeze()`` (the cached snapshot an engine
        over ``graph`` uses too), and its extension carries the match
        sets as id rows in that snapshot's id space (the token recorded
        in :attr:`snapshot_token`), which is what lets MatchJoin sweep
        stored integer rows at query time; a sharded graph evaluates
        each view shard by shard (:mod:`repro.shard.psim`).
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
        snapshot-bound (built from node-key sets), or
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
        (re-stamped onto a batch's snapshot via
        :meth:`~repro.views.view.MaterializedView.rebound`).  Because no version
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
        stale view from the batch's snapshot before the next use.  The
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

    def __repr__(self) -> str:
        return (
            f"ViewSet(card={self.cardinality}, "
            f"materialized={len(self._extensions)})"
        )
