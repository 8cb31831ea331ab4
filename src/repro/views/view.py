"""View definitions and materialized view extensions.

A :class:`ViewDefinition` wraps a (bounded) pattern with a stable name.
:func:`materialize` evaluates it on a data graph and returns a
:class:`MaterializedView` -- the view extension ``V(G)``: for every view
edge ``e``, the match set ``Se`` (data-graph edges for simulation views,
node pairs for bounded views), plus the distance index ``I(V)`` mapping
each materialized pair to its actual shortest-path distance in ``G``
(bounded views only; Section VI-A).

The extension deliberately does *not* keep a reference to ``G``:
MatchJoin must run "without accessing G at all" (Theorem 1), and keeping
the graph out of the extension object makes that guarantee structural.

Materializing against a frozen :class:`~repro.graph.compact.CompactGraph`
snapshot (or a :class:`~repro.shard.sharded.ShardedGraph`) additionally
attaches a :class:`~repro.views.flatpack.FlatExtension` -- the same
match sets as parallel ``(src, tgt)`` id rows in the snapshot's integer
id space, stamped with the snapshot's token/version.  MatchJoin
recognises extensions that share a snapshot and sweeps the rows
directly (still never touching adjacency, so Theorem 1's guarantee is
intact).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Set, Tuple

from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.compact_engine import IdRows
from repro.simulation.simulation import evaluate
from repro.simulation.simulation import match as _match
from repro.views.flatpack import FlatExtension, _LazyDistances

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph
    from repro.simulation.result import MatchResult

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]


class ViewDefinition:
    """A named view: a (bounded) graph pattern query used as a view.

    Parameters
    ----------
    name:
        Unique identifier used by caches and reports.
    pattern:
        The defining :class:`Pattern` or :class:`BoundedPattern`.
    """

    __slots__ = ("name", "pattern")

    def __init__(self, name: str, pattern: Pattern) -> None:
        if not name:
            raise ValueError("view name must be non-empty")
        if pattern.num_edges == 0:
            raise ValueError(
                f"view {name!r} has no edges; edge-less views cannot "
                "contribute match sets"
            )
        self.name = name
        self.pattern = pattern

    @property
    def is_bounded(self) -> bool:
        """Whether this is a bounded view (Section VI): its edges match
        paths up to a bound, and its extension carries ``I(V)``."""
        return isinstance(self.pattern, BoundedPattern)

    @property
    def size(self) -> int:
        """``|V|`` for a single definition: nodes + edges."""
        return self.pattern.size

    def __repr__(self) -> str:
        kind = "bounded" if self.is_bounded else "simulation"
        return (
            f"ViewDefinition({self.name!r}, {kind}, "
            f"nodes={self.pattern.num_nodes}, edges={self.pattern.num_edges})"
        )


class MaterializedView:
    """The extension ``V(G)`` of a view in some data graph.

    Attributes
    ----------
    definition:
        The :class:`ViewDefinition` this extension belongs to.
    edge_matches:
        ``{view edge: Se}``; empty sets everywhere when the view did not
        match the graph.
    distances:
        For bounded views, ``{(v, v'): d}`` over all materialized pairs
        -- the index ``I(V)``.  ``None`` for simulation views, whose
        pairs are data edges (distance 1 by construction).
    compact:
        Optional :class:`~repro.views.flatpack.FlatExtension` carrying
        the same match sets as id rows in snapshot id space (set when
        the view was materialized against a snapshot).  When it ships
        as a handle so does the view, and the worker
        decodes ``edge_matches`` (and the node-key distance index)
        lazily from the rows -- specs that run entirely in id space
        never pay the decode at all.
    """

    __slots__ = ("definition", "edge_matches", "distances", "compact", "_size")

    def __init__(
        self,
        definition: ViewDefinition,
        edge_matches: Dict[PEdge, Set[NodePair]],
        distances: Optional[Dict[NodePair, int]] = None,
        compact: Optional[FlatExtension] = None,
    ) -> None:
        self.definition = definition
        self.edge_matches = edge_matches
        self.distances = distances
        self.compact = compact
        self._size: Optional[int] = None

    @property
    def snapshot_version(self) -> Optional[int]:
        """Version of the snapshot this extension was materialized
        against (``None`` when built from a mutable graph)."""
        return self.compact.version if self.compact is not None else None

    @property
    def name(self) -> str:
        """Name of the owning view definition (the cache key)."""
        return self.definition.name

    @property
    def is_empty(self) -> bool:
        """True when the view did not match ``G`` (every ``Se`` empty)."""
        return not any(self.edge_matches.values())

    @property
    def num_pairs(self) -> int:
        """Total number of materialized pairs across all view edges."""
        return sum(len(pairs) for pairs in self.edge_matches.values())

    @property
    def size(self) -> int:
        """``|V(G)|`` contribution: nodes touched + pairs stored.

        Computed once and cached: the match sets are fixed at
        construction (maintenance builds fresh extensions rather than
        mutating them in place), and the adaptive planner reads sizes
        on every plan, so recounting pairs each time would dominate
        planning cost.
        """
        if self._size is None:
            nodes: Set[Node] = set()
            for pairs in self.edge_matches.values():
                for v, w in pairs:
                    nodes.add(v)
                    nodes.add(w)
            self._size = len(nodes) + self.num_pairs
        return self._size

    def pairs_of(self, view_edge: PEdge) -> Set[NodePair]:
        """The match set ``Se`` of one view edge -- what MatchJoin's
        merge step (Fig. 2 lines 1-4) unions over λ-images."""
        return self.edge_matches[view_edge]

    def distance_of(self, pair: NodePair) -> int:
        """``I(V)`` lookup: actual distance of a materialized pair."""
        if self.distances is None:
            return 1
        return self.distances[pair]

    def rebound(self, snapshot) -> "MaterializedView":
        """This extension with its payload re-stamped onto a snapshot
        refreshed from its own (:meth:`FlatExtension.rebound`)."""
        return MaterializedView(
            self.definition,
            self.edge_matches,
            self.distances,
            self.compact.rebound(snapshot),
        )

    def __reduce__(self):
        payload = self.compact
        if payload is not None and payload.ships_as_handle:
            return (_attach_view, (self.definition, payload))
        return (
            MaterializedView,
            (self.definition, self.edge_matches, self.distances, payload),
        )

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, pairs={self.num_pairs})"


def _attach_view(
    definition: ViewDefinition, flat: FlatExtension
) -> MaterializedView:
    """A view whose node-key sets decode lazily from ``flat``'s rows."""
    distances = (
        _LazyDistances(flat.store, decode=flat.nodes.__getitem__)
        if flat.distances is not None
        else None
    )
    return MaterializedView(definition, flat.per_edge("pairs"), distances, flat)


def materialize(definition: ViewDefinition, graph: DataGraph) -> MaterializedView:
    """Evaluate a view on ``G`` and build its extension.

    Simulation views store the match sets of the unique maximum match;
    bounded views additionally store the distance index ``I(V)``.
    ``graph`` may be a frozen :class:`CompactGraph` or a
    :class:`~repro.shard.sharded.ShardedGraph`, in which case the
    extension also carries the id-row payload MatchJoin sweeps
    (composite ids for sharded graphs, computed shard by shard).
    """
    pattern = definition.pattern
    bounded = definition.is_bounded
    evaluated = evaluate(pattern, graph, bounded=bounded, distances=bounded)
    if evaluated is not None:
        return snapshot_extension(definition, graph, *evaluated)
    if bounded:
        from repro.simulation.bounded import bounded_match_with_distances

        result, per_edge_distances = bounded_match_with_distances(pattern, graph)
        if not result:
            return MaterializedView(
                definition,
                {edge: set() for edge in pattern.edges()},
                distances={},
            )
        index: Dict[NodePair, int] = {}
        for pair_distances in per_edge_distances.values():
            for pair, distance in pair_distances.items():
                previous = index.get(pair)
                if previous is None or distance < previous:
                    index[pair] = distance
        return MaterializedView(definition, result.edge_matches, distances=index)
    result = _match(pattern, graph)
    if not result:
        return MaterializedView(
            definition, {edge: set() for edge in pattern.edges()}
        )
    return MaterializedView(definition, result.edge_matches)


def snapshot_extension(
    definition: ViewDefinition,
    snapshot,
    result: MatchResult,
    id_rows: Optional[IdRows],
    id_distances: Optional[Dict[Tuple[int, int], int]] = None,
) -> MaterializedView:
    """Package one evaluation against ``snapshot`` as an extension.

    ``id_rows`` is the kernel's id-space output (``None`` on a failed
    match); it is concatenated into the payload here and not kept, so
    materializing a catalog holds one view's kernel rows at a time.
    For bounded views ``id_distances`` is ``I(V)`` in id space -- built
    during materialization, never re-derived per query -- and the
    node-key index on the :class:`MaterializedView` is decoded from the
    same table, so the two views of ``I(V)`` cannot drift.  Against a
    shared snapshot the payload comes back packed, so the view ships as a
    handle.
    """
    pattern = definition.pattern
    if id_rows is None:
        edge_matches = {edge: set() for edge in pattern.edges()}
        id_rows = {edge: (array("q"), array("q")) for edge in pattern.edges()}
        id_distances = {} if definition.is_bounded else None
    else:
        edge_matches = dict(result.edge_matches)  # built now, held as sets
    payload = FlatExtension.from_rows(snapshot, id_rows, id_distances)
    distances = None
    if id_distances is not None:
        decode = payload.nodes.__getitem__
        distances = {
            (decode(v), decode(w)): d for (v, w), d in id_distances.items()
        }
    return MaterializedView(definition, edge_matches, distances, payload)


def bind_extension(extension: MaterializedView, snapshot) -> MaterializedView:
    """A copy of ``extension`` whose id-space payload is bound to
    ``snapshot`` (a :class:`CompactGraph` or
    :class:`~repro.shard.sharded.ShardedGraph`).

    The node-key match sets are shared, only the id rows are (re)built
    -- O(|V(G)|), no re-evaluation.  This is how the maintenance
    pipeline keeps MatchJoin in id space for a view whose extension was
    refreshed incrementally: the tracker hands back node-key match
    sets, and binding encodes them in the refreshed snapshot's id
    space.  Bounded views are returned unchanged: they sit outside
    incremental maintenance (binding a stale bounded extension onto a
    fresh token would launder outdated distances), so they are
    *rematerialized* -- with a fresh id-space distance payload --
    rather than re-bound.
    """
    if extension.definition.is_bounded:
        return extension
    return MaterializedView(
        extension.definition,
        extension.edge_matches,
        extension.distances,
        FlatExtension.from_pairs(snapshot, extension.edge_matches),
    )
