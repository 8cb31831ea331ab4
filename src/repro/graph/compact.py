"""Immutable, read-optimized snapshots of data graphs.

A :class:`CompactGraph` is a frozen copy of a
:class:`~repro.graph.digraph.DataGraph` whose adjacency *is* its CSR
tables in one :class:`~repro.graph.flatbuf.FlatStore`: dense ids
``0..n-1``, ``(indptr, indices)`` pairs of 64-bit ints for successors,
predecessors and per-node label rows, and a **sorted id bucket** per
label.  Node keys and attribute dicts (the graph's own, never copied)
stay Python lists in process, JSON tables of the store only once saved
(:meth:`CompactGraph.saved_store`).  The engines
exploit the layout twice over: *seeding* reads candidate sets off the
label buckets and per-attribute sorted columns
(:meth:`CompactGraph.candidate_ids`) instead of scanning every node --
the ``O(|Qs||G|)`` term of the paper's simulation bound (Theorems 1-3
of conf_icde_FanWW14 assume this kind of index) -- and *refinement*
intersects candidate sets with adjacency rows at C speed, each row
decoded into an id tuple on first touch (:class:`_Rows`), or gathers
from the edge list read straight off the tables
(:meth:`CompactGraph.edge_columns`).

:attr:`snapshot_version` (the source graph's mutation counter) and
:attr:`snapshot_token` (64 random bits) identify a snapshot's id space,
so downstream caches exchange raw ids only within one.  The snapshot
an edge-update batch yields (:meth:`CompactGraph.applied`, the one way
a maintained graph changes) keeps the base tables, carries rebuilt rows
and appended nodes in a *patch* overlay, keeps every node's id and
records its predecessor's token in :attr:`extends_token`: the
maintenance pipeline's licence to re-stamp extensions of unchanged
views.  A save writes *store + meta + patch*
(:class:`~repro.graph.snapshot.SnapshotStore`), the only form in which a
snapshot leaves a process: it does not pickle.  The read API
mirrors :class:`DataGraph` over the original node keys, so every
generic engine runs on a snapshot unchanged; the id-space API
(``out_ids``, ``label_ids``, ``node_of`` ...) serves the fast paths.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from operator import itemgetter, ne, sub
from typing import Any, Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.conditions import AttributeCondition, Label, TrueCondition
from repro.graph.flatbuf import FlatStore
from repro.graph.io import JSON_SCALARS, check_attrs, node_from_json, node_to_json
from repro.obs.metrics import get_registry

Node = Hashable
Edge = Tuple[Node, Node]

#: One attribute's column: the values of the nodes that carry it, sorted
#: ascending, the owning ids alongside, and whether the values are
#: numbers (else strings).  ``None`` stands for a column that does not
#: totally order and is therefore never probed.
Column = Tuple[List[Any], array, bool]
#: One conjunct of a condition as the index answers it: an id sequence
#: and the ``[start, stop)`` ranges of it whose ids satisfy the conjunct.
Part = Tuple[Sequence[int], Tuple[Tuple[int, int], ...]]

_NUMERIC = frozenset((int, float, bool))
#: The overlay of a snapshot no batch was applied to.  ``succ`` /
#: ``pred`` map ids to rebuilt rows; ``nodes`` / ``labels`` / ``attrs``
#: describe the nodes appended after the base tables, ``buckets`` their
#: ids per label.
_EMPTY_PATCH = {"succ": {}, "pred": {}, "nodes": [], "labels": [], "attrs": [], "buckets": {}}


def _part_width(part: Part) -> int:
    return sum(stop - start for start, stop in part[1])


def bounding_label(condition) -> str:
    """The label every node satisfying ``condition`` carries, or ``""``:
    the bucket the candidate index seeds the node from."""
    if isinstance(condition, Label):
        return condition.name
    return condition.label if isinstance(condition, AttributeCondition) else ""


def _new_token() -> int:
    """64 random bits: tokens minted by *different* processes (a saved
    snapshot, another's extensions) cannot collide either."""
    return int.from_bytes(os.urandom(8), "big") | 1


class SnapshotError(ValueError):
    """A snapshot directory is missing, malformed or would be clobbered
    without ``overwrite=True``, or a saved key or attribute has no JSON form."""


def _keys_to_json(nodes: List[Node]) -> list:
    """Node keys as a JSON doc (tuple keys as lists), or a
    :class:`SnapshotError` naming a key of another type."""
    kinds = set(map(type, nodes))
    if not kinds <= {*JSON_SCALARS, tuple}:
        node = next(node for node in nodes if type(node) not in (*JSON_SCALARS, tuple))
        raise SnapshotError(f"node {node!r}: a saved key is a str, int, float, bool, "
                            "None or a tuple of them")
    return list(map(node_to_json, nodes)) if tuple in kinds else nodes


def _attrs_to_json(nodes, attrs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The attribute dicts of ``nodes`` as a JSON doc, or a
    :class:`SnapshotError` naming a node with a value JSON cannot carry."""
    for node, found in zip(nodes, attrs):
        check_attrs(node, found, SnapshotError)
    return attrs


def patch_to_json(patch) -> dict:
    """A :meth:`CompactGraph.applied` overlay as a JSON doc: rows and
    buckets as ``[key, [ids]]`` pairs, appended nodes through the key
    and attribute codecs, label sets as sorted lists."""
    doc = {key: list(patch[key].items()) for key in ("succ", "pred", "buckets")}
    nodes = patch["nodes"]
    doc.update(nodes=_keys_to_json(nodes), attrs=_attrs_to_json(nodes, patch["attrs"]))
    doc["labels"] = list(map(sorted, patch["labels"]))
    return doc


def patch_from_json(doc) -> dict:
    """The overlay :func:`patch_to_json` wrote."""
    patch = {key: {k: tuple(ids) for k, ids in doc[key]} for key in ("succ", "pred", "buckets")}
    patch.update(nodes=list(map(node_from_json, doc["nodes"])), attrs=doc["attrs"])
    patch["labels"] = list(map(frozenset, doc["labels"]))
    return patch


def _csr(rows, encode=None) -> Tuple[array, array]:
    """``rows`` (a list of sequences) -> ``(indptr, indices)``, every
    element mapped through ``encode`` when one is given."""
    flat = chain.from_iterable(rows)
    indptr = array("q", accumulate(map(len, rows), initial=0))
    return indptr, array("q", flat if encode is None else map(encode, flat))


class _Rows(dict):
    """Per-node rows of a CSR pair, each decoded on first touch.

    ``rows[i]`` is ``decode(indices[indptr[i]:indptr[i + 1]])`` the
    first time and a plain dict hit after, so the set kernels' hot
    loops (``succ[v]``, ``map(succ.__getitem__, frontier)``) run at C
    speed and pay only for the rows they visit.  Rows of nodes a
    batch appended come pre-filled from the patch, or decode empty.
    ``len`` is the node count, ``dict.__len__`` the rows decoded.
    """

    __slots__ = ("_indptr", "_indices", "_decode", "_n")

    def __init__(self, indptr, indices, decode, n: int, rows=()) -> None:
        super().__init__(rows)
        self._indptr = indptr
        self._indices = indices
        self._decode = decode
        self._n = n

    def __missing__(self, i: int):
        indptr = self._indptr
        row = self._decode(
            self._indices[indptr[i] : indptr[i + 1]] if i < len(indptr) - 1 else ()
        )
        self[i] = row
        return row

    def __len__(self) -> int:
        return self._n

    def carried(self, n: int, changed: Dict[int, Any]) -> "_Rows":
        """The rows of a patched snapshot of ``n`` nodes: every row
        decoded here so far, except that ``changed`` replaces its own."""
        rows = _Rows(self._indptr, self._indices, self._decode, n, self)
        rows.update(changed)
        return rows


def _rows(store: FlatStore, kind: str, decode, n: int, rows=()) -> _Rows:
    return _Rows(store.ints(kind + "_indptr"), store.ints(kind + "_indices"), decode, n, rows)


def _label_decoder(store: FlatStore):
    names = store.obj("labels")
    return lambda row: frozenset(map(names.__getitem__, row))


def _stored_keys(store: FlatStore) -> List[Node]:
    """A store's node keys: no per-key call unless a tuple key is among them."""
    keys = store.obj("nodes")
    return list(map(node_from_json, keys)) if list in set(map(type, keys)) else keys


def _stored_attrs(store: FlatStore) -> List[Dict[str, Any]]:
    # ``null`` stands for a base of attribute-less nodes.
    return store.obj("attrs") or [{} for _ in range(len(store.ints("succ_indptr")) - 1)]


class _Table:
    """An id-indexed list built by ``source()`` on first use -- a
    store's node keys or attribute dicts, a sharded graph's composite
    decode table -- followed by the entries of the nodes batches
    appended."""

    __slots__ = ("_source", "_appended", "_table")

    def __init__(self, source, appended: Sequence[Any] = ()) -> None:
        self._source = source
        self._appended = list(appended)
        self._table: Optional[List[Any]] = None

    def _load(self) -> List[Any]:
        table = self._table
        if table is None:
            table = self._source()
            table = self._table = table + self._appended if self._appended else table
        return table

    def __len__(self) -> int:
        return len(self._load())

    def __getitem__(self, i):
        return self._load()[i]

    def __iter__(self):
        return iter(self._load())

    def __add__(self, appended: List[Any]) -> "_Table":
        return _Table(self._source, self._appended + appended)


class CompactGraph:
    """A frozen, integer-id snapshot of a :class:`DataGraph`.

    Build one with :meth:`DataGraph.freeze`, not directly.  The snapshot
    is immutable: there are no mutation methods, and the underlying
    tables are shared freely by everything derived from it.
    """

    __slots__ = (
        "_flat", "_patch", "_num_nodes", "_num_edges", "_nodes", "_ids",
        "_attrs", "_succ", "_pred", "_labels", "_buckets", "_succ_sets",
        "_pred_sets", "_columns", "_edge_columns", "_array_cache",
        "snapshot_version", "snapshot_token", "extends_token",
    )

    def __init__(self, graph, version: int) -> None:
        """Write ``graph``'s CSR tables (see :meth:`DataGraph.freeze`)."""
        nodes: List[Node] = list(graph.nodes())
        ids: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        id_of = ids.__getitem__
        label_sets = list(map(graph.labels, nodes))
        names = sorted(set().union(*label_sets))
        slot_of = {label: k for k, label in enumerate(names)}
        label_rows = {s: sorted(map(slot_of.__getitem__, s)) for s in set(label_sets)}
        arrays: Dict[str, array] = {}
        for kind, rows, encode in (
            ("succ", list(map(graph.successors, nodes)), id_of),
            ("pred", list(map(graph.predecessors, nodes)), id_of),
            ("label_row", list(map(label_rows.__getitem__, label_sets)), None),
            ("bucket", [sorted(map(id_of, graph.nodes_with_label(l))) for l in names], None),
        ):
            arrays[kind + "_indptr"], arrays[kind + "_indices"] = _csr(rows, encode)
        store = FlatStore.pack(arrays, {"labels": names})
        self._bind(store, None, (len(nodes), graph.num_edges, version, _new_token(), None))
        self._nodes = nodes
        self._ids = ids
        self._attrs = list(map(graph.attrs, nodes))

    def _bind(self, store: FlatStore, patch, meta) -> None:
        """Set every slot for the tables of ``store`` overlaid by
        ``patch``: rows, labels, node keys and attrs all decode lazily."""
        n, self._num_edges, self.snapshot_version, self.snapshot_token, self.extends_token = meta
        self._flat, self._patch, self._num_nodes = store, patch or None, n
        patch = patch or _EMPTY_PATCH
        base = len(store.ints("succ_indptr")) - 1
        self.drop_decoded_rows()
        self._labels = _rows(
            store, "label_row", _label_decoder(store), n, enumerate(patch["labels"], base)
        )
        self._nodes = _Table(partial(_stored_keys, store), patch["nodes"])
        self._attrs = _Table(partial(_stored_attrs, store), patch["attrs"])
        self._ids = None
        # Decoded label buckets, node-key adjacency frozensets (for the
        # generic engines) and per-attribute candidate columns: all
        # built on first use.
        self._buckets: Dict[str, Tuple[int, ...]] = {}
        self._succ_sets: Dict[int, FrozenSet[Node]] = {}
        self._pred_sets: Dict[int, FrozenSet[Node]] = {}
        self._columns: Dict[str, Optional[Column]] = {}
        self._edge_columns: Optional[Tuple[array, array]] = None
        # The array kernel's derived arrays, see ``array_cache``.
        self._array_cache: Dict[str, Any] = {}

    def applied(self, ops) -> "CompactGraph":
        """The snapshot after the ordered edge ops ``ops`` (``("insert" |
        "delete", source, target)``), patched onto this one, which stays
        as it was.  The touched rows are derived from this snapshot's
        own; an insert naming an unknown key appends it as a bare node
        (as ``DataGraph.add_edge`` does).  Rebuilt rows and appended
        nodes join the patch overlay over the same base tables, every
        other decoded row is shared, and every old id is kept
        (:attr:`extends_token`) -- also when the patch outgrows
        ``max(64, base // 4)`` rows and the result is encoded afresh.
        The version moves as a :class:`DataGraph`'s would."""
        n_old, ids = self._num_nodes, self._id_map()
        keys = (key for op, *edge in ops if op == "insert" for key in edge)
        appended = list(dict.fromkeys(key for key in keys if key not in ids))
        if appended:
            ids = {**ids, **dict(zip(appended, count(n_old)))}
        changed: Tuple[Dict[int, Set[int]], ...] = ({}, {})
        for op, source, target in ops:
            s, t = ids.get(source), ids.get(target)
            if s is None or t is None:
                continue  # a delete naming an unknown key removes nothing
            for rows, old, i, j in ((changed[0], self._succ, s, t), (changed[1], self._pred, t, s)):
                row = rows.get(i)
                if row is None:
                    row = rows[i] = set(old[i] if i < n_old else ())
                (row.add if op == "insert" else row.discard)(j)
        succ, pred = ({i: tuple(row) for i, row in rows.items()} for rows in changed)
        edges = self._num_edges + sum(map(len, succ.values()))
        edges -= sum(len(self._succ[i]) for i in succ if i < n_old)
        n, attrs, previous = n_old + len(appended), [{} for _ in appended], self._patch or _EMPTY_PATCH
        patch = {
            "succ": {**previous["succ"], **succ},
            "pred": {**previous["pred"], **pred},
            "nodes": previous["nodes"] + appended,
            "labels": previous["labels"] + [frozenset()] * len(appended),
            "attrs": previous["attrs"] + attrs,
            "buckets": previous["buckets"],
        }
        version = self.snapshot_version + len(ops) + len(appended)
        new = CompactGraph.__new__(CompactGraph)
        new._bind(self._flat, patch, (n, edges, version, _new_token(), self.snapshot_token))
        new._ids = ids
        new._nodes = self._nodes + appended if appended else self._nodes
        new._attrs = self._attrs + attrs if appended else self._attrs
        new._labels = self._labels.carried(n, {}) if appended else self._labels
        new._succ, new._pred = self._succ.carried(n, succ), self._pred.carried(n, pred)
        new._succ_sets = {i: s for i, s in self._succ_sets.items() if i not in succ}
        new._pred_sets = {i: s for i, s in self._pred_sets.items() if i not in pred}
        base = len(self._flat.ints("succ_indptr")) - 1
        if len(patch["succ"]) + len(patch["pred"]) + n - base > max(64, base // 4):
            new = CompactGraph(new, version)  # re-encode: the patch outgrew the base
            new.extends_token = self.snapshot_token
        # No label or attribute moved: buckets and columns hold on both.
        new._buckets, new._columns = self._buckets, self._columns
        return new

    def drop_decoded_rows(self) -> None:
        """Forget the adjacency rows decoded so far but a patch's own.
        :meth:`applied` copies every decoded row, so a one-off pass over
        much of the graph (a maintained boot's fixpoints) drops them after."""
        patch, store, n = self._patch or _EMPTY_PATCH, self._flat, self._num_nodes
        self._succ = _rows(store, "succ", tuple, n, patch["succ"])
        self._pred = _rows(store, "pred", tuple, n, patch["pred"])

    # ------------------------------------------------------------------
    # Identity and the stored form
    # ------------------------------------------------------------------
    def freeze(self) -> "CompactGraph":
        """Snapshots are already frozen; return ``self`` (idempotence)."""
        return self

    @staticmethod
    def share(graph: "CompactGraph") -> "CompactGraph":
        """``graph`` itself: every snapshot is its tables.  Kept for
        ``perf/batch.py`` until ROADMAP item 3 repoints it."""
        return graph

    @property
    def version(self) -> int:
        """Mutation-counter alias: a snapshot *is* its version (so a
        snapshot can stand in for a live graph, e.g. an engine booted
        from a saved snapshot directory, where ``graph.version ==
        snapshot.snapshot_version`` means "no refresh needed")."""
        return self.snapshot_version

    @property
    def flat_store(self) -> FlatStore:
        """The base tables (shared, do not mutate)."""
        return self._flat

    def saved_store(self) -> FlatStore:
        """What a save writes: the base tables plus the base nodes' keys
        and attrs as JSON tables.  A snapshot attached to such a store
        returns it as it is."""
        store = self._flat
        if "nodes" in store.header:
            return store
        base = len(store.ints("succ_indptr")) - 1
        nodes = list(islice(self._nodes, base))
        attrs = list(islice(self._attrs, base))
        ints = {name: store.ints(name) for name, (kind, *_) in store.header.items() if kind == "q"}
        attrs = _attrs_to_json(nodes, attrs) if any(attrs) else None
        docs = {"labels": store.obj("labels"), "nodes": _keys_to_json(nodes), "attrs": attrs}
        return FlatStore.pack(ints, docs)

    # ------------------------------------------------------------------
    # Integer-id API (the fast paths)
    # ------------------------------------------------------------------
    def _id_map(self) -> Dict[Node, int]:
        ids = self._ids
        if ids is None:
            ids = self._ids = {node: i for i, node in enumerate(self._nodes)}
        return ids

    def id_of(self, node: Node) -> int:
        """The dense id of ``node`` (KeyError if absent)."""
        return self._id_map()[node]

    def node_of(self, i: int) -> Node:
        """The original node key behind id ``i``."""
        return self._nodes[i]

    @property
    def node_table(self):
        """The id -> node key decode table (shared, do not mutate)."""
        return self._nodes

    def out_ids(self, i: int) -> Tuple[int, ...]:
        """Successor ids of node id ``i`` (the CSR row)."""
        return self._succ[i]

    def in_ids(self, i: int) -> Tuple[int, ...]:
        """Predecessor ids of node id ``i``."""
        return self._pred[i]

    @property
    def succ_rows(self) -> _Rows:
        """All successor rows, indexed by id (shared, do not mutate)."""
        return self._succ

    @property
    def pred_rows(self) -> _Rows:
        """All predecessor rows, indexed by id (shared, do not mutate)."""
        return self._pred

    def edge_columns(self) -> Tuple[array, array]:
        """Every edge as parallel int32 ``(source id, target id)``
        columns in CSR order (sources ascending, each row's targets in
        row order) -- what the array Match kernel gathers its rows
        from.  Read off the successor tables and the patch, no row
        decoded, on first use; kept on the snapshot, so the columns die
        with it (shared, do not mutate)."""
        columns = self._edge_columns
        if columns is None:
            indptr = self._flat.ints("succ_indptr")
            indices = self._flat.ints("succ_indices")
            base = len(indptr) - 1
            overrides = self._patch["succ"] if self._patch else {}
            lengths = list(map(sub, indptr[1:], indptr))
            lengths.extend(repeat(0, self._num_nodes - base))
            targets = array("i")
            done = 0  # base rows copied (or overridden) so far
            for i in sorted(overrides):
                row = overrides[i]
                lengths[i] = len(row)
                upto = min(i, base)
                if upto > done:
                    targets.extend(indices[indptr[done] : indptr[upto]])
                done = max(done, min(i + 1, base))
                targets.extend(row)
            targets.extend(indices[indptr[done] : indptr[base]])
            sources = map(repeat, range(len(lengths)), lengths)
            columns = self._edge_columns = (
                array("i", chain.from_iterable(sources)),
                targets,
            )
        return columns

    @property
    def array_cache(self) -> Dict[str, Any]:
        """What :mod:`repro.simulation.array_engine` derived from this
        snapshot (label masks, label-pair edge rows, the node-key column):
        dies with it, is never a predecessor's and is never saved."""
        return self._array_cache

    def label_ids(self, label: str) -> Tuple[int, ...]:
        """Ids of every node carrying ``label`` (empty tuple if none),
        ascending: the label's bucket, then its appended ids."""
        bucket = self._buckets.get(label)
        if bucket is None:
            store = self._flat
            names = store.obj("labels")
            slot = bisect_left(names, label)
            bucket = ()
            if slot < len(names) and names[slot] == label:
                indptr = store.ints("bucket_indptr")
                bucket = tuple(store.ints("bucket_indices")[indptr[slot] : indptr[slot + 1]])
            if self._patch:
                bucket += self._patch["buckets"].get(label, ())
            self._buckets[label] = bucket
        return bucket

    def labels_of(self, i: int) -> FrozenSet[str]:
        """Label set of node id ``i``."""
        return self._labels[i]

    def attrs_of(self, i: int) -> Dict[str, Any]:
        """Attribute dict of node id ``i``."""
        return self._attrs[i]

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` for every indexed label."""
        indptr = self._flat.ints("bucket_indptr")
        stats = dict(zip(self._flat.obj("labels"), map(sub, indptr[1:], indptr)))
        for label, ids in (self._patch["buckets"] if self._patch else {}).items():
            stats[label] = stats.get(label, 0) + len(ids)
        return stats

    # ------------------------------------------------------------------
    # Candidate seeding (the label buckets plus attribute columns)
    # ------------------------------------------------------------------
    def candidate_ids(self, condition) -> Set[int]:
        """Exactly ``{i : condition.matches(labels_of(i), attrs_of(i))}``,
        as a fresh set.

        A label is its bucket, a comparison atom one or two slices of
        its attribute's sorted column, a conjunction their intersection
        taken smallest first -- all C-level set work, no per-node
        condition call.  A conjunct the index cannot answer (a column or
        comparison value that does not totally order, an unknown
        condition type) leaves the pool the other conjuncts narrowed it
        to -- every node when there is none -- to be tested by
        ``matches``, the only per-node scan left in seeding.
        """
        parts, exact = self.index_parts(condition)
        parts.sort(key=_part_width)
        ids, ranges = parts[0]
        found: Set[int] = set().union(*(ids[a:b] for a, b in ranges))
        for ids, ranges in parts[1:]:
            found = set().union(
                *(found.intersection(ids[a:b]) for a, b in ranges)
            )
        if not exact:
            get_registry().counter("repro_sim_seed_scanned_total").inc(len(found))
            labels, attrs = self._labels, self._attrs
            found = {
                i for i in found if condition.matches(labels[i], attrs[i])
            }
        return found

    def index_parts(self, condition) -> Tuple[List[Part], bool]:
        """The conjuncts of ``condition`` the index answers (never
        empty: every node, failing all else; the label bucket first) and
        whether that is all of them."""
        parts: List[Part] = []
        label = bounding_label(condition)
        atoms = condition.atoms if isinstance(condition, AttributeCondition) else ()
        exact = isinstance(condition, (Label, AttributeCondition, TrueCondition))
        if label:
            bucket = self.label_ids(label)
            parts.append((bucket, ((0, len(bucket)),)))
        for atom in atoms:
            part = self._atom_part(atom)
            if part is None:
                exact = False
            else:
                parts.append(part)
        if not parts:
            n = self._num_nodes
            parts.append((range(n), ((0, n),)))
        return parts, exact

    def _atom_part(self, atom) -> Optional[Part]:
        """Where ``atom`` holds, as ranges of its attribute's column;
        ``None`` when bisecting would not reproduce ``Atom.holds``."""
        try:
            column = self._columns[atom.attr]
        except KeyError:
            column = self._columns[atom.attr] = self._build_column(atom.attr)
        if column is None:
            return None
        values, ids, numeric = column
        if not values:
            return ids, ()  # no node carries the attribute
        value = atom.value
        if numeric:
            # ``value == value`` rules NaN out: it equals nothing.
            if type(value) not in _NUMERIC or value != value:
                return None
        elif type(value) is not str:
            return None
        lo = bisect_left(values, value)
        hi = bisect_right(values, value)
        op = atom.op
        if op == "==":
            ranges = ((lo, hi),)
        elif op == "!=":
            ranges = ((0, lo), (hi, len(ids)))
        elif op == "<":
            ranges = ((0, lo),)
        elif op == "<=":
            ranges = ((0, hi),)
        elif op == ">":
            ranges = ((hi, len(ids)),)
        else:
            ranges = ((lo, len(ids)),)
        return ids, ranges

    def _build_column(self, attr: str) -> Optional[Column]:
        """Sort the nodes carrying ``attr`` by its value.  Only columns
        of real numbers (no NaN) or of strings qualify: anything else
        -- ``None``, mixed kinds, containers, subclasses with their own
        comparisons -- need not order totally, and gets ``None``."""
        pairs = [(d[attr], i) for i, d in enumerate(self._attrs) if attr in d]
        values = [value for value, _ in pairs]
        kinds = set(map(type, values))
        numeric = kinds <= _NUMERIC
        if not (numeric or kinds == {str}) or any(map(ne, values, values)):
            return None
        pairs.sort(key=itemgetter(0))
        return (
            [value for value, _ in pairs],
            array("q", [i for _, i in pairs]),
            numeric,
        )

    # ------------------------------------------------------------------
    # DataGraph-compatible read API (original node keys)
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._id_map()

    def __len__(self) -> int:
        return self._num_nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes  # the key table may not be decoded yet

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self._num_nodes + self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def edges(self) -> Iterator[Edge]:
        decode = self._nodes.__getitem__
        sources, targets = self.edge_columns()
        return zip(map(decode, sources), map(decode, targets))

    def has_edge(self, source: Node, target: Node) -> bool:
        ids = self._id_map()
        i = ids.get(source)
        if i is None:
            return False
        j = ids.get(target)
        return j is not None and j in self._succ[i]

    def successors(self, node: Node) -> FrozenSet[Node]:
        i = self._id_map()[node]
        cached = self._succ_sets.get(i)
        if cached is None:
            cached = frozenset(map(self._nodes.__getitem__, self._succ[i]))
            self._succ_sets[i] = cached
        return cached

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        i = self._id_map()[node]
        cached = self._pred_sets.get(i)
        if cached is None:
            cached = frozenset(map(self._nodes.__getitem__, self._pred[i]))
            self._pred_sets[i] = cached
        return cached

    def out_degree(self, node: Node) -> int:
        return len(self._succ[self._id_map()[node]])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[self._id_map()[node]])

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._labels[self._id_map()[node]]

    def attrs(self, node: Node) -> Dict[str, Any]:
        """``node``'s attribute dict, shared with its graph: read-only."""
        return self._attrs[self._id_map()[node]]

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label`` (index lookup, O(bucket))."""
        return map(self._nodes.__getitem__, self.label_ids(label))

    # ------------------------------------------------------------------
    # Id-space traversal primitives (the bounded fast paths)
    # ------------------------------------------------------------------
    def descendants_within_ids(self, i: int, bound: int) -> Dict[int, int]:
        """``{id: distance}`` for every node reachable from id ``i`` by a
        nonempty path of length in ``[1, bound]`` (shortest distances).

        Level-synchronous BFS over the CSR rows: each frontier expands
        with C-level ``set.update`` against adjacency tuples, which is
        what makes the bounded engines competitive on snapshots.
        """
        if bound < 1:
            return {}
        succ = self._succ
        dist: Dict[int, int] = {}
        frontier = set(succ[i])
        depth = 1
        while frontier:
            dist.update(dict.fromkeys(frontier, depth))
            if depth >= bound:
                break
            frontier = set().union(
                *map(succ.__getitem__, frontier)
            ).difference(dist)
            depth += 1
        return dist

    def reachable_ids(self, i: int) -> set:
        """All ids reachable from id ``i`` by a nonempty path."""
        succ = self._succ
        seen: set = set()
        stack = list(succ[i])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(succ[j])
        return seen

    def reverse_within_ids(self, targets, bound: int) -> set:
        """Ids with a nonempty path of length <= ``bound`` *into* any of
        the target ids -- the multi-source reverse bounded BFS at the
        heart of the BMatch refinement, in id space."""
        pred = self._pred
        seen: set = set()
        frontier = set().union(*map(pred.__getitem__, targets))
        depth = 1
        while frontier:
            seen |= frontier
            if depth >= bound:
                break
            frontier = set().union(
                *map(pred.__getitem__, frontier)
            ).difference(seen)
            depth += 1
        return seen

    def reverse_reachable_ids(self, targets) -> set:
        """Ids with *any* nonempty path into any of the target ids."""
        pred = self._pred
        seen: set = set()
        stack: List[int] = []
        for t in targets:
            stack.extend(pred[t])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(pred[j])
        return seen

    # ------------------------------------------------------------------
    # Traversal helpers (same contract as DataGraph)
    # ------------------------------------------------------------------
    def descendants_within(self, source: Node, bound: int) -> Dict[Node, int]:
        """Map each node reachable from ``source`` by a path of length in
        ``[1, bound]`` to its shortest such distance (id-space BFS)."""
        nodes = self._nodes
        return {
            nodes[i]: d
            for i, d in self.descendants_within_ids(
                self.id_of(source), bound
            ).items()
        }

    def __repr__(self) -> str:
        return (
            f"CompactGraph(nodes={self.num_nodes}, edges={self._num_edges}, "
            f"snapshot={self.snapshot_version})"
        )


def _attach(store: FlatStore, patch, meta) -> CompactGraph:
    """The snapshot over a saved store (``meta`` is ``(nodes, edges,
    version, token, extends_token)``): nothing is decoded until a read
    asks for it."""
    snapshot = CompactGraph.__new__(CompactGraph)
    snapshot._bind(store, patch, meta)
    return snapshot
