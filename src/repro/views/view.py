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

Materialization always runs on the graph's frozen snapshot (a
:class:`~repro.graph.compact.CompactGraph`, or a
:class:`~repro.shard.sharded.ShardedGraph`) and stores the extension as
a :class:`~repro.views.flatpack.FlatExtension` -- the match sets as
parallel ``(src, tgt)`` id rows in the snapshot's integer id space,
stamped with the snapshot's token/version -- and nothing else: the
node-key sets and ``I(V)`` decode from the rows when read.
MatchJoin recognises extensions that share a snapshot and sweeps the
rows directly (still never touching adjacency, so Theorem 1's guarantee
is intact).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Set, Tuple

from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.compact_engine import IdRows
from repro.simulation.simulation import evaluate
from repro.views.flatpack import FlatExtension, _LazyDistances

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph

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
        the same match sets as id rows in snapshot id space (set on
        every :func:`materialize`d view and every view the maintenance
        tracker reads off its kept fixpoint; ``None`` only for an
        extension built from node-key sets by hand).  Such a view is
        built one way, by :func:`_attach_view`, whether fresh or attached
        from a saved snapshot: the rows are its only stored form, and
        ``edge_matches`` and ``distances`` decode from them per view
        edge on first read -- evaluations that run entirely in id space
        never pay the decode at all.  Like its rows, it does not pickle.
    """

    # ``compact`` first: a pickle meets its store's refusal before
    # decoding any match set.
    __slots__ = ("compact", "definition", "edge_matches", "distances", "_size")

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
        against (``None`` for an extension built from node-key sets)."""
        return self.compact.version if self.compact is not None else None

    @property
    def name(self) -> str:
        """Name of the owning view definition (the cache key)."""
        return self.definition.name

    @property
    def is_empty(self) -> bool:
        """True when the view did not match ``G`` (every ``Se`` empty)."""
        return self.num_pairs == 0

    @property
    def num_pairs(self) -> int:
        """Total number of materialized pairs across all view edges
        (off the id rows where there are some: nothing is decoded)."""
        if self.compact is not None:
            return self.compact.num_pairs
        return sum(len(pairs) for pairs in self.edge_matches.values())

    @property
    def size(self) -> int:
        """``|V(G)|`` contribution: nodes touched + pairs stored.

        Computed once and cached: the match sets are fixed at
        construction (maintenance builds fresh extensions rather than
        mutating them in place), and every plan-choice record reads
        the sizes of the extensions its answer read.  Counted off the
        id rows where there are some, like :attr:`num_pairs`.
        """
        if self._size is None:
            if self.compact is not None:
                nodes = self.compact.num_nodes()
            else:
                nodes = len({
                    v
                    for pairs in self.edge_matches.values()
                    for pair in pairs
                    for v in pair
                })
            self._size = nodes + self.num_pairs
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
        patched from its own (:meth:`FlatExtension.rebound`)."""
        return MaterializedView(
            self.definition,
            self.edge_matches,
            self.distances,
            self.compact.rebound(snapshot),
        )

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, pairs={self.num_pairs})"


def _attach_view(
    definition: ViewDefinition, flat: FlatExtension
) -> MaterializedView:
    """The one construction of a view that carries id rows -- fresh in
    process or attached from a saved snapshot: its node-key
    sets and node-key ``I(V)`` decode lazily from ``flat``."""
    distances = (
        None
        if flat.distances is None
        else _LazyDistances(partial(_decoded_distances, flat))
    )
    return MaterializedView(definition, flat.per_edge("pairs"), distances, flat)


def _decoded_distances(flat: FlatExtension):
    decode = flat.nodes.__getitem__
    return (((decode(v), decode(w)), d) for (v, w), d in flat.distances.items())


def materialize(definition: ViewDefinition, graph: DataGraph) -> MaterializedView:
    """Evaluate a view on ``G`` and build its extension.

    Simulation views store the match sets of the unique maximum match;
    bounded views additionally store the distance index ``I(V)``.  The
    evaluation runs on ``graph.freeze()`` -- cached on a live
    :class:`DataGraph`, the graph itself for a frozen
    :class:`CompactGraph` or a :class:`~repro.shard.sharded.ShardedGraph`
    (composite ids, computed shard by shard) -- so every extension is
    the id rows MatchJoin sweeps, bound to the snapshot an engine over
    the same graph freezes to.
    """
    bounded = definition.is_bounded
    snapshot = graph.freeze()
    _, id_rows, id_distances = evaluate(
        definition.pattern, snapshot, bounded=bounded, distances=bounded
    )
    return snapshot_extension(definition, snapshot, id_rows, id_distances)


def snapshot_extension(
    definition: ViewDefinition,
    snapshot,
    id_rows: Optional[IdRows],
    id_distances: Optional[Dict[Tuple[int, int], int]] = None,
) -> MaterializedView:
    """Package one evaluation against ``snapshot`` as an extension.

    ``id_rows`` is the kernel's id-space output (``None`` on a failed
    match); it is concatenated into the payload here and not kept, so
    materializing a catalog holds one view's kernel rows at a time.
    For bounded views ``id_distances`` is ``I(V)`` in id space -- built
    during materialization, never re-derived per query.  The rows are
    the only stored form: the node-key sets and the node-key ``I(V)``
    decode from them on first read (:func:`_attach_view`), so the two
    forms cannot drift.
    """
    if id_rows is None:
        edges = definition.pattern.edges()
        id_rows = {edge: (array("q"), array("q")) for edge in edges}
        id_distances = {} if definition.is_bounded else None
    return _attach_view(
        definition, FlatExtension.from_rows(snapshot, id_rows, id_distances)
    )
