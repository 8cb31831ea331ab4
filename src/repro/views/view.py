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
node-key sets and ``I(V)`` decode from the rows when read.  There is
no other form: MatchJoin sweeps the rows of extensions that share one
snapshot and refuses extensions of two (still never touching adjacency,
so Theorem 1's guarantee is intact).
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
    compact:
        The :class:`~repro.views.flatpack.FlatExtension`: the match sets
        as id rows in the id space of the snapshot they were computed
        on, stamped with its token.  It is the extension's only stored
        form, whether fresh or attached from a saved snapshot, and like
        its rows it does not pickle.
    edge_matches:
        ``{view edge: Se}`` as node-key sets, decoded from the rows per
        view edge on first read (evaluations that run entirely in id
        space never pay the decode); empty sets everywhere when the
        view did not match the graph.
    distances:
        For bounded views, ``{(v, v'): d}`` over all materialized pairs
        -- the index ``I(V)``, decoded from the rows' id-space index on
        first read.  ``None`` for simulation views, whose pairs are data
        edges (distance 1 by construction).
    """

    # ``compact`` first: a pickle meets its store's refusal before
    # decoding any match set.
    __slots__ = ("compact", "definition", "edge_matches", "distances", "_size")

    def __init__(self, definition: ViewDefinition, compact: FlatExtension) -> None:
        self.compact = compact
        self.definition = definition
        self.edge_matches = compact.per_edge("pairs")
        self.distances = (
            None
            if compact.distances is None
            else _LazyDistances(partial(_decoded_distances, compact))
        )
        self._size: Optional[int] = None

    @property
    def snapshot_version(self) -> int:
        """Version of the snapshot this extension was materialized
        against."""
        return self.compact.version

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
        (off the id rows: nothing is decoded)."""
        return self.compact.num_pairs

    @property
    def size(self) -> int:
        """``|V(G)|`` contribution: nodes touched + pairs stored.

        Computed once, off the id rows, and cached: the match sets are
        fixed at construction (maintenance builds fresh extensions
        rather than mutating them in place), and every plan-choice
        record reads the sizes of the extensions its answer read.
        """
        if self._size is None:
            self._size = self.compact.num_nodes() + self.num_pairs
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
        patched from its own (:meth:`FlatExtension.rebound`); the sets
        decoded so far are shared, not decoded again."""
        clone = MaterializedView.__new__(MaterializedView)
        for slot in MaterializedView.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.compact = self.compact.rebound(snapshot)
        return clone

    def __repr__(self) -> str:
        return f"MaterializedView({self.name!r}, pairs={self.num_pairs})"


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
    decode from them on first read (:class:`MaterializedView`), so the
    two forms cannot drift.
    """
    if id_rows is None:
        edges = definition.pattern.edges()
        id_rows = {edge: (array("q"), array("q")) for edge in edges}
        id_distances = {} if definition.is_bounded else None
    return MaterializedView(
        definition, FlatExtension.from_rows(snapshot, id_rows, id_distances)
    )
