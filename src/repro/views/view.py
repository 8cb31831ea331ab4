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
snapshot additionally attaches a :class:`CompactExtension` -- the same
match sets in the snapshot's integer-id space, pre-grouped by source and
by target, stamped with the snapshot's token/version.  MatchJoin
recognises extensions that share a snapshot and runs its fixpoint
directly on the id-space indexes (still never touching adjacency, so
Theorem 1's guarantee is intact).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.compact import CompactGraph
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.compact_engine import IdEdgeMatches, compact_match_with_ids
from repro.simulation.simulation import match as _match

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]


class CompactExtension:
    """Id-space form of one extension, bound to one snapshot.

    Attributes
    ----------
    token / version:
        The owning snapshot's :attr:`snapshot_token` /
        :attr:`snapshot_version`.  Two extensions exchange raw ids only
        when their tokens agree.
    nodes:
        The id -> node key decode table, shared by reference with the
        snapshot (and with every sibling extension of the same
        snapshot).
    by_source / by_target:
        ``{view edge: {id: set of ids}}`` -- the match sets grouped both
        ways, ready for the MatchJoin fixpoint.  Treated as immutable;
        consumers copy before refining.
    distances:
        For bounded views, the id-space distance index ``I(V)``:
        ``{(source id, target id): distance}`` over every materialized
        pair, minimized across view edges -- the same semantics as
        :attr:`MaterializedView.distances`, so BMatchJoin's id-space
        bound filtering is pair-for-pair identical to the node-key
        path.  ``None`` for simulation views (pairs are data edges,
        distance 1 by construction).
    """

    __slots__ = (
        "token",
        "version",
        "nodes",
        "by_source",
        "by_target",
        "distances",
    )

    def __init__(
        self,
        snapshot: CompactGraph,
        id_matches: IdEdgeMatches,
        by_target: Optional[IdEdgeMatches] = None,
        distances: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> None:
        self.token = snapshot.snapshot_token
        self.version = snapshot.snapshot_version
        self.nodes: List[Node] = snapshot.node_table
        self.by_source: IdEdgeMatches = id_matches
        if by_target is None:
            by_target = {}
            for edge, grouped in id_matches.items():
                reverse: Dict[int, Set[int]] = {}
                for v, targets in grouped.items():
                    for w in targets:
                        reverse.setdefault(w, set()).add(v)
                by_target[edge] = reverse
        self.by_target = by_target
        self.distances = distances

    def rebound(self, snapshot) -> "CompactExtension":
        """The same match sets re-stamped onto ``snapshot``.

        Valid only when ``snapshot`` *extends* this payload's id space
        -- i.e. it was refreshed from the snapshot this extension was
        materialized against (``snapshot.extends_token == self.token``),
        which guarantees every pre-existing node kept its id.  The
        maintenance pipeline uses this to keep the MatchJoin fast path
        engaged for views an update did not touch, at zero cost.
        """
        if getattr(snapshot, "extends_token", None) != self.token:
            raise ValueError(
                "snapshot does not extend this extension's id space; "
                "re-materialize or bind_extension() instead"
            )
        clone = CompactExtension.__new__(CompactExtension)
        clone.token = snapshot.snapshot_token
        clone.version = snapshot.snapshot_version
        clone.nodes = snapshot.node_table
        clone.by_source = self.by_source
        clone.by_target = self.by_target
        clone.distances = self.distances
        return clone


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
        Optional :class:`CompactExtension` carrying the same match sets
        in snapshot id space (set when the view was materialized
        against a :class:`~repro.graph.compact.CompactGraph`).
    """

    __slots__ = ("definition", "edge_matches", "distances", "compact", "_size")

    def __init__(
        self,
        definition: ViewDefinition,
        edge_matches: Dict[PEdge, Set[NodePair]],
        distances: Optional[Dict[NodePair, int]] = None,
        compact: Optional[CompactExtension] = None,
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

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, pairs={self.num_pairs})"


def materialize(definition: ViewDefinition, graph: DataGraph) -> MaterializedView:
    """Evaluate a view on ``G`` and build its extension.

    Simulation views store the match sets of the unique maximum match;
    bounded views additionally store the distance index ``I(V)``.
    ``graph`` may be a frozen :class:`CompactGraph` or a
    :class:`~repro.shard.sharded.ShardedGraph`, in which case
    simulation extensions also carry the id-space
    :class:`CompactExtension` payload for the MatchJoin fast path
    (composite ids for sharded graphs, computed shard by shard).
    """
    pattern = definition.pattern
    # Shard layer dispatch (sys.modules probe: if the shard subpackage
    # was never imported, graph cannot be a ShardedGraph).
    shard_module = sys.modules.get("repro.shard.sharded")
    sharded = shard_module is not None and isinstance(
        graph, shard_module.ShardedGraph
    )
    if isinstance(pattern, BoundedPattern):
        if sharded:
            from repro.shard.materialize import materialize_bounded_view

            return materialize_bounded_view(definition, graph)
        if isinstance(graph, CompactGraph):
            return _flatten_if_shared(
                _materialize_bounded_compact(definition, graph), graph
            )
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
    if sharded:
        from repro.shard.materialize import materialize_view

        return materialize_view(definition, graph)
    if isinstance(graph, CompactGraph):
        result, id_matches = compact_match_with_ids(pattern, graph)
        if id_matches is None:
            id_matches = {edge: {} for edge in pattern.edges()}
        compact = CompactExtension(graph, id_matches)
        if not result:
            return _flatten_if_shared(
                MaterializedView(
                    definition,
                    {edge: set() for edge in pattern.edges()},
                    compact=compact,
                ),
                graph,
            )
        return _flatten_if_shared(
            MaterializedView(definition, result.edge_matches, compact=compact),
            graph,
        )
    result = _match(pattern, graph)
    if not result:
        return MaterializedView(
            definition, {edge: set() for edge in pattern.edges()}
        )
    return MaterializedView(definition, result.edge_matches)


def _flatten_if_shared(view: MaterializedView, graph: CompactGraph):
    """Upgrade to a flat-buffer extension when the snapshot is shared
    (pickles as a segment handle; see :mod:`repro.views.flatpack`)."""
    from repro.graph.flatbuf import SharedCompactGraph

    if not isinstance(graph, SharedCompactGraph):
        return view
    from repro.views.flatpack import flatten_view

    return flatten_view(view, graph)


def decode_distance_index(
    id_distances: Dict[Tuple[int, int], int], nodes: List[Node]
) -> Dict[NodePair, int]:
    """Decode an id-space distance index to node keys (one table pass)."""
    decode = nodes.__getitem__
    return {
        (decode(v), decode(w)): d for (v, w), d in id_distances.items()
    }


def _materialize_bounded_compact(
    definition: ViewDefinition, graph: CompactGraph
) -> MaterializedView:
    """Bounded materialization against a frozen snapshot.

    Runs the id-space bounded engine and attaches a
    :class:`CompactExtension` whose :attr:`~CompactExtension.distances`
    carries the distance index ``I(V)`` in id space -- built during
    materialization, never re-derived per query -- so the BMatchJoin
    fast path can bound-filter without decoding a single pair.  The
    node-key index stored on the :class:`MaterializedView` is decoded
    from the same id-space table, so the two views of ``I(V)`` cannot
    drift.
    """
    from repro.simulation.compact_bounded import compact_bounded_match_with_ids

    pattern = definition.pattern
    result, id_matches, id_distances = compact_bounded_match_with_ids(
        pattern, graph, with_distances=True
    )
    if id_matches is None:
        empty_ids: IdEdgeMatches = {edge: {} for edge in pattern.edges()}
        return MaterializedView(
            definition,
            {edge: set() for edge in pattern.edges()},
            distances={},
            compact=CompactExtension(graph, empty_ids, distances={}),
        )
    compact = CompactExtension(graph, id_matches, distances=id_distances)
    return MaterializedView(
        definition,
        result.edge_matches,
        distances=decode_distance_index(id_distances, graph.node_table),
        compact=compact,
    )


def bind_extension(extension: MaterializedView, snapshot) -> MaterializedView:
    """A copy of ``extension`` whose id-space payload is bound to
    ``snapshot`` (a :class:`CompactGraph` or
    :class:`~repro.shard.sharded.ShardedGraph`).

    The node-key match sets are shared, only the integer-id payload is
    (re)built -- O(|V(G)|), no re-evaluation.  This is how the
    maintenance pipeline re-engages the MatchJoin fast path for a view
    whose extension was refreshed incrementally: the tracker hands back
    node-key match sets, and binding stamps them into the refreshed
    snapshot's id space.  Bounded views are returned unchanged: they
    sit outside incremental maintenance (binding a stale bounded
    extension onto a fresh token would launder outdated distances), so
    they are *rematerialized* -- with a fresh id-space distance payload
    -- rather than re-bound.
    """
    if extension.definition.is_bounded:
        return extension
    id_of = snapshot.id_of
    id_matches: IdEdgeMatches = {}
    for edge, pairs in extension.edge_matches.items():
        grouped: Dict[int, Set[int]] = {}
        for v, w in pairs:
            grouped.setdefault(id_of(v), set()).add(id_of(w))
        id_matches[edge] = grouped
    return _flatten_if_shared(
        MaterializedView(
            extension.definition,
            extension.edge_matches,
            distances=extension.distances,
            compact=CompactExtension(snapshot, id_matches),
        ),
        snapshot,
    )
