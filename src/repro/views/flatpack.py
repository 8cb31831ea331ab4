"""The id-space extension payload: per-view-edge pair rows.

Materializing a view against a snapshot attaches one
:class:`FlatExtension` to the :class:`~repro.views.view.MaterializedView`
(``view.compact``): the same match sets as ``edge_matches``, but as
**parallel ``(src, tgt)`` id rows** in the snapshot's integer id space --
one CSR over all view edges (``pairs_indptr`` / ``pairs_src`` /
``pairs_tgt``), bounded views adding the minimized ``I(V)``.  The rows
are the whole stored form; everything else MatchJoin reads is decoded
from them per view edge on first touch and cached:

* ``src_keys`` / ``tgt_keys`` -- the ids occurring in each row, for the
  kernel's batch set-ops;
* ``src_nodes`` / ``tgt_nodes`` -- the same as node keys, so an edge the
  fixpoint leaves untouched packages without a single per-pair decode;
* ``by_target`` -- the rows grouped by target id (``{target: [source
  ids]}``), built by one pass the first time the kernel *probes* the
  view edge (reads only the rows at its live targets) and never before.

None of these is stored: a saved snapshot carries the rows alone.

The rows (and a bounded view's ``I(V)`` as ``dist_*`` triples) live in
one :class:`~repro.graph.flatbuf.FlatStore` from the start -- the store
:class:`~repro.graph.snapshot.SnapshotStore` saves beside a snapshot's
segment and maps back on load -- so a payload fresh in process and one
attached from disk run the same code (both read rows through
:meth:`FlatExtension.pair_rows`).  Like its store, a payload does not
pickle.  The id -> node-key decode table is the snapshot's own,
referenced, not copied: an attached payload decodes through the loaded
snapshot's lazy table.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graph.flatbuf import FlatStore
from repro.simulation.result import LazyMap

PEdge = Tuple[Hashable, Hashable]
IdDistances = Dict[Tuple[int, int], int]


class _LazyDistances(dict):
    """A distance index filled on first use from ``fill()``'s
    ``((v, w), d)`` items: the id-space ``I(V)`` off a store's flat
    triples (``FlatExtension.distances``), or
    the node-key form decoded from an id-space index
    (``MaterializedView.distances``).
    """

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable[[], Iterable]) -> None:
        super().__init__()
        self._fill = fill

    def _ensure(self) -> None:
        fill = self._fill
        if fill is not None:
            self.update(fill())
            self._fill = None

    def __missing__(self, key):
        if self._fill is None:
            raise KeyError(key)
        self._ensure()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._ensure()
        return dict.get(self, key, default)

    def __contains__(self, key) -> bool:
        self._ensure()
        return dict.__contains__(self, key)

    def __len__(self) -> int:
        self._ensure()
        return dict.__len__(self)

    def __iter__(self):
        self._ensure()
        return dict.__iter__(self)

    def items(self):
        self._ensure()
        return dict.items(self)

    def values(self):
        self._ensure()
        return dict.values(self)

    def keys(self):
        self._ensure()
        return dict.keys(self)

    def __eq__(self, other):
        self._ensure()
        if isinstance(other, _LazyDistances):
            other._ensure()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None


class FlatExtension:
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
    edge_order / edge_index:
        The view edges in row order, and their positions.
    src_keys / tgt_keys / src_nodes / tgt_nodes:
        ``{view edge: frozenset}``, decoded from the rows on first
        access (see the module docstring).
    by_target:
        ``{view edge: {target id: [source ids]}}``, grouped from the
        rows on first access (:func:`group_by_target`).
    distances:
        For bounded views, the id-space distance index ``I(V)``:
        ``{(source id, target id): distance}`` over every materialized
        pair, minimized across view edges -- the same semantics as
        :attr:`MaterializedView.distances`, so BMatchJoin's id-space
        bound filtering is pair-for-pair identical to the node-key
        path; read off the store's ``dist_*`` triples on first use.
        ``None`` for simulation views (pairs are data edges, distance 1
        by construction).
    store:
        The :class:`FlatStore` holding the rows (and ``I(V)``'s triples).
    """

    __slots__ = (
        "store",  # first: a pickle meets the store's refusal at once
        "token",
        "version",
        "nodes",
        "edge_order",
        "edge_index",
        "src_keys",
        "tgt_keys",
        "src_nodes",
        "tgt_nodes",
        "by_target",
        "distances",
    )

    def __init__(
        self,
        stamp: tuple,
        edge_order: List[PEdge],
        store: FlatStore,
        distances: Optional[IdDistances] = None,
    ) -> None:
        """``stamp`` is :func:`snapshot_stamp` of the owning snapshot;
        ``store`` holds the row tables (``pairs_indptr`` / ``pairs_src``
        / ``pairs_tgt``).  Producers use :meth:`from_rows`."""
        self.store = store
        self.token, self.version, self.nodes = stamp
        self.edge_order = edge_order
        self.edge_index = {edge: k for k, edge in enumerate(edge_order)}
        self.distances = distances
        for kind in ("src_keys", "tgt_keys", "src_nodes", "tgt_nodes", "by_target"):
            setattr(self, kind, self.per_edge(kind))

    @classmethod
    def from_rows(
        cls,
        snapshot,
        id_rows: Dict[PEdge, Tuple[array, array]],
        distances: Optional[IdDistances] = None,
    ) -> "FlatExtension":
        """Rows from a simulation kernel's ``{edge: (source ids, target
        ids)}`` output, concatenated and packed with ``I(V)``'s triples
        (the caller can then drop its own), and attached as a saved
        payload is: ``distances`` reads the triples back on first use.
        ``snapshot`` may be a :class:`~repro.graph.compact.CompactGraph`
        or a :class:`~repro.shard.sharded.ShardedGraph` (composite ids)."""
        indptr = array("q", [0])
        src = array("q")
        tgt = array("q")
        for sources, targets in id_rows.values():
            src.extend(sources)
            tgt.extend(targets)
            indptr.append(len(src))
        tables = {"pairs_indptr": indptr, "pairs_src": src, "pairs_tgt": tgt}
        if distances is not None:
            pairs = distances.keys()
            tables.update(
                dist_src=array("q", [v for v, _ in pairs]),
                dist_tgt=array("q", [w for _, w in pairs]),
                dist_val=array("q", distances.values()),
            )
        token, version, nodes = snapshot_stamp(snapshot)
        store = FlatStore.pack(tables, {})
        return _attach_extension(
            store, nodes, list(id_rows), token, version, distances is not None
        )

    @staticmethod
    def pack(snapshot, base: "FlatExtension") -> "FlatExtension":
        """``base`` itself: its rows are one store already.  Kept for
        ``perf/batch.py`` until ROADMAP item 3 repoints it."""
        return base

    def pair_rows(self, view_edge: PEdge):
        """The raw ``(src, tgt)`` id rows of one view edge.

        Parallel zero-copy ``"q"`` slices -- the unit the MatchJoin
        kernel sweeps.  Identical in process, packed and attached;
        ``KeyError`` for a foreign edge, as dicts do.
        """
        k = self.edge_index[view_edge]
        indptr = self.store.ints("pairs_indptr")
        lo, hi = indptr[k], indptr[k + 1]
        return self.store.ints("pairs_src")[lo:hi], self.store.ints("pairs_tgt")[lo:hi]

    @property
    def num_pairs(self) -> int:
        """Pairs over every view edge (``pairs_indptr``'s last offset)."""
        return self.store.ints("pairs_indptr")[-1]

    def num_nodes(self) -> int:
        """Distinct nodes over every pair, counted as ids: ids and node
        keys are a bijection, so nothing is decoded."""
        return len(set(self.store.ints("pairs_src")).union(self.store.ints("pairs_tgt")))

    def per_edge(self, kind: str) -> LazyMap:
        """``{view edge: structure}``, each decoded by :meth:`build`
        on first access."""
        return LazyMap(self.edge_index, partial(self.build, kind))

    def build(self, kind: str, edge: PEdge):
        """Decode one per-edge structure from the rows."""
        src, tgt = self.pair_rows(edge)
        if kind == "src_keys":
            return frozenset(src)
        if kind == "tgt_keys":
            return frozenset(tgt)
        if kind == "by_target":
            return group_by_target(src, tgt)
        decode = self.nodes.__getitem__
        if kind == "src_nodes":
            return frozenset(map(decode, self.src_keys[edge]))
        if kind == "tgt_nodes":
            return frozenset(map(decode, self.tgt_keys[edge]))
        if kind == "pairs":
            return set(zip(map(decode, src), map(decode, tgt)))
        raise AssertionError(kind)

    def rebound(self, snapshot) -> "FlatExtension":
        """The same rows re-stamped onto ``snapshot``.

        Valid only when ``snapshot`` *extends* this payload's id space
        -- i.e. it was patched from the snapshot this extension was
        materialized against (``snapshot.extends_token == self.token``),
        which guarantees every pre-existing node kept its id.  The
        maintenance pipeline uses this to keep MatchJoin in id space
        for views an update did not touch, at zero cost: rows, store
        and the per-edge sets and indexes built so far are all shared.
        """
        if getattr(snapshot, "extends_token", None) != self.token:
            raise ValueError(
                "snapshot does not extend this extension's id space; "
                "re-materialize the view on it instead"
            )
        clone = FlatExtension.__new__(FlatExtension)
        for slot in FlatExtension.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.token, clone.version, clone.nodes = snapshot_stamp(snapshot)
        return clone


def group_by_target(src, tgt) -> Dict[Hashable, List[Hashable]]:
    """Parallel ``(src, tgt)`` rows as ``{target: [sources]}``, one
    entry per row (duplicates kept) -- the index MatchJoin probes, over
    one snapshot's ids (a payload's rows, bound-filtered rows, or the
    rows a hybrid join scans off the graph)."""
    groups: Dict[Hashable, List[Hashable]] = {}
    get = groups.get
    for v, w in zip(src, tgt):
        sources = get(w)
        if sources is None:
            groups[w] = [v]
        else:
            sources.append(v)
    return groups


def snapshot_stamp(snapshot) -> tuple:
    """``(token, version, node table)`` -- the provenance a payload
    carries and the table it decodes ids through."""
    return snapshot.snapshot_token, snapshot.snapshot_version, snapshot.node_table


def _attach_extension(
    store: FlatStore,
    nodes,
    edge_order: List[PEdge],
    token: int,
    version: int,
    bounded: bool,
) -> FlatExtension:
    """A payload's store attached -- a saved one on snapshot load, a
    fresh one by :meth:`FlatExtension.from_rows` -- decoding through
    ``nodes``; nothing is decoded until a query touches it."""
    return FlatExtension(
        (token, version, nodes),
        edge_order,
        store,
        _LazyDistances(partial(_stored_distances, store)) if bounded else None,
    )


def _stored_distances(store: FlatStore):
    """``I(V)``'s ``((source id, target id), distance)`` items off a
    store's ``dist_*`` triples."""
    return zip(
        zip(store.ints("dist_src"), store.ints("dist_tgt")), store.ints("dist_val")
    )
