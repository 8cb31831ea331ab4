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
  fixpoint leaves untouched packages without a single per-pair decode.

In process the rows are plain ``array('q')`` columns and no segment is
created.  :meth:`FlatExtension.pack` moves the same columns into a
:class:`~repro.graph.flatbuf.FlatStore` under the same table names --
the form :class:`~repro.graph.snapshot.SnapshotStore` saves beside a
snapshot's segment and maps back on load -- and a payload attached
that way runs exactly the code the in-process one runs (both read rows
through :meth:`FlatExtension.pair_rows`).  The id -> node-key decode
table is the snapshot's own, referenced, not copied: an attached
payload decodes through the loaded snapshot's lazy table.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graph.flatbuf import FlatStore
from repro.simulation.result import LazyMap

PEdge = Tuple[Hashable, Hashable]
Node = Hashable
IdDistances = Dict[Tuple[int, int], int]

_ROW_TABLES = ("pairs_indptr", "pairs_src", "pairs_tgt")


class _LazyDistances(dict):
    """A distance index decoded from the flat triples on first use.

    ``decode=None`` yields the id-space table
    (``FlatExtension.distances``); with a node table it yields the
    node-key form (``MaterializedView.distances``).
    """

    __slots__ = ("_store", "_decode", "_ready")

    def __init__(self, store: FlatStore, decode=None) -> None:
        super().__init__()
        self._store = store
        self._decode = decode
        self._ready = False

    def _ensure(self) -> None:
        if not self._ready:
            store = self._store
            src = store.ints("dist_src")
            tgt = store.ints("dist_tgt")
            val = store.ints("dist_val")
            decode = self._decode
            if decode is None:
                self.update(zip(zip(src, tgt), val))
            else:
                self.update(
                    ((decode(v), decode(w)), d)
                    for v, w, d in zip(src, tgt, val)
                )
            self._ready = True

    def __missing__(self, key):
        if self._ready:
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
    distances:
        For bounded views, the id-space distance index ``I(V)``:
        ``{(source id, target id): distance}`` over every materialized
        pair, minimized across view edges -- the same semantics as
        :attr:`MaterializedView.distances`, so BMatchJoin's id-space
        bound filtering is pair-for-pair identical to the node-key
        path.  ``None`` for simulation views (pairs are data edges,
        distance 1 by construction).
    store:
        The :class:`FlatStore` holding the rows once :meth:`pack` ed
        or attached (``None`` in process, where ``_tables`` holds the
        columns).
    """

    __slots__ = (
        "token",
        "version",
        "nodes",
        "edge_order",
        "edge_index",
        "src_keys",
        "tgt_keys",
        "src_nodes",
        "tgt_nodes",
        "distances",
        "_tables",
        "store",
    )

    def __init__(
        self,
        stamp: tuple,
        edge_order: List[PEdge],
        tables,
        distances: Optional[IdDistances] = None,
    ) -> None:
        """``stamp`` is :func:`snapshot_stamp` of the owning snapshot;
        ``tables`` either the three row columns (``pairs_indptr`` /
        ``pairs_src`` / ``pairs_tgt`` as ``array('q')``) or a
        :class:`FlatStore` holding them.  Producers use
        :meth:`from_rows` / :meth:`from_pairs`."""
        self.token, self.version, self.nodes = stamp
        self.edge_order = edge_order
        self.edge_index = {edge: k for k, edge in enumerate(edge_order)}
        if isinstance(tables, FlatStore):
            self._tables, self.store = None, tables
        else:
            self._tables, self.store = tables, None
        self.distances = distances
        for kind in ("src_keys", "tgt_keys", "src_nodes", "tgt_nodes"):
            setattr(self, kind, self.per_edge(kind))

    @classmethod
    def from_rows(
        cls,
        snapshot,
        id_rows: Dict[PEdge, Tuple[array, array]],
        distances: Optional[IdDistances] = None,
    ) -> "FlatExtension":
        """Rows from a simulation kernel's ``{edge: (source ids, target
        ids)}`` output, concatenated (the caller can then drop its
        own).  ``snapshot`` may be a
        :class:`~repro.graph.compact.CompactGraph` or a
        :class:`~repro.shard.sharded.ShardedGraph` (composite ids)."""
        indptr = array("q", [0])
        src = array("q")
        tgt = array("q")
        for sources, targets in id_rows.values():
            src.extend(sources)
            tgt.extend(targets)
            indptr.append(len(src))
        tables = {"pairs_indptr": indptr, "pairs_src": src, "pairs_tgt": tgt}
        return cls(snapshot_stamp(snapshot), list(id_rows), tables, distances)

    @classmethod
    def from_pairs(
        cls, snapshot, edge_matches: Dict[PEdge, Set[Tuple[Node, Node]]]
    ) -> "FlatExtension":
        """Rows from node-key match sets, encoded through
        ``snapshot.id_of`` (``KeyError`` for a node it lacks)."""
        id_of = snapshot.id_of
        indptr = array("q", [0])
        src = array("q")
        tgt = array("q")
        for pairs in edge_matches.values():
            src.extend([id_of(v) for v, _ in pairs])
            tgt.extend([id_of(w) for _, w in pairs])
            indptr.append(len(src))
        tables = {"pairs_indptr": indptr, "pairs_src": src, "pairs_tgt": tgt}
        return cls(snapshot_stamp(snapshot), list(edge_matches), tables)

    @classmethod
    def pack(cls, snapshot, base: "FlatExtension") -> "FlatExtension":
        """``base``'s rows moved into one flat segment (``I(V)`` as
        ``dist_*`` triples), decoding through ``snapshot``'s node table
        (``base`` is bound to ``snapshot``)."""
        arrays = {name: base._ints(name) for name in _ROW_TABLES}
        if base.distances is not None:
            d_src = array("q")
            d_tgt = array("q")
            d_val = array("q")
            for (v, w), d in base.distances.items():
                d_src.append(v)
                d_tgt.append(w)
                d_val.append(d)
            arrays.update(dist_src=d_src, dist_tgt=d_tgt, dist_val=d_val)
        store = FlatStore.pack(arrays=arrays, blobs={})
        return cls(snapshot_stamp(snapshot), base.edge_order, store, base.distances)

    def _ints(self, name: str) -> memoryview:
        if self.store is not None:
            return self.store.ints(name)
        return memoryview(self._tables[name])

    def pair_rows(self, view_edge: PEdge):
        """The raw ``(src, tgt)`` id rows of one view edge.

        Parallel zero-copy ``"q"`` slices -- the unit the MatchJoin
        kernel sweeps.  Identical in process, packed and attached;
        ``KeyError`` for a foreign edge, as dicts do.
        """
        k = self.edge_index[view_edge]
        indptr = self._ints("pairs_indptr")
        lo, hi = indptr[k], indptr[k + 1]
        return self._ints("pairs_src")[lo:hi], self._ints("pairs_tgt")[lo:hi]

    @property
    def num_pairs(self) -> int:
        """Pairs over every view edge (``pairs_indptr``'s last offset)."""
        return self._ints("pairs_indptr")[-1]

    def num_nodes(self) -> int:
        """Distinct nodes over every pair, counted as ids: ids and node
        keys are a bijection, so nothing is decoded."""
        return len(set(self._ints("pairs_src")).union(self._ints("pairs_tgt")))

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
        decode = self.nodes.__getitem__
        if kind == "src_nodes":
            return frozenset(map(decode, self.src_keys[edge]))
        if kind == "tgt_nodes":
            return frozenset(map(decode, self.tgt_keys[edge]))
        if kind == "pairs":
            return set(zip(map(decode, src), map(decode, tgt)))
        raise AssertionError(kind)

    @property
    def ships_as_handle(self) -> bool:
        """Whether pickling carries the store (packed or attached rows)
        rather than the rows themselves."""
        return self.store is not None

    def __reduce__(self):
        if self.ships_as_handle:
            return (
                _attach_extension,
                (
                    self.store,
                    self.nodes,
                    self.edge_order,
                    self.token,
                    self.version,
                    self.distances is not None,
                ),
            )
        distances = None if self.distances is None else dict(self.distances)
        stamp = (self.token, self.version, self.nodes)
        return (FlatExtension, (stamp, self.edge_order, self._tables, distances))

    def rebound(self, snapshot) -> "FlatExtension":
        """The same rows re-stamped onto ``snapshot``.

        Valid only when ``snapshot`` *extends* this payload's id space
        -- i.e. it was refreshed from the snapshot this extension was
        materialized against (``snapshot.extends_token == self.token``),
        which guarantees every pre-existing node kept its id.  The
        maintenance pipeline uses this to keep MatchJoin in id space
        for views an update did not touch, at zero cost: rows, store
        and the per-edge sets decoded so far are all shared.
        """
        if getattr(snapshot, "extends_token", None) != self.token:
            raise ValueError(
                "snapshot does not extend this extension's id space; "
                "re-materialize or bind_extension() instead"
            )
        clone = FlatExtension.__new__(FlatExtension)
        for slot in FlatExtension.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.token, clone.version, clone.nodes = snapshot_stamp(snapshot)
        return clone


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
    """Reconstruction of a packed payload (snapshot load, unpickling)
    decoding through ``nodes``; nothing is decoded until a query
    touches it."""
    return FlatExtension(
        (token, version, nodes),
        edge_order,
        store,
        _LazyDistances(store) if bounded else None,
    )
