"""Immutable, read-optimized snapshots of data graphs.

A :class:`CompactGraph` is a frozen CSR-style copy of a
:class:`~repro.graph.digraph.DataGraph`: nodes are renumbered to dense
integer ids ``0..n-1``, adjacency is stored as per-node tuples of ids
(one flat row per node, no hash sets), labels and attributes live in
id-indexed tables, and every label maps to the sorted id array of the
nodes carrying it.  The matching engines exploit this layout twice over:

* **seeding** -- candidate sets come straight from the label index
  and from per-attribute sorted columns
  (:meth:`CompactGraph.candidate_ids`) instead of a full-node condition
  scan, the dominant cost of the ``O(|Qs||G|)`` term in the paper's
  simulation bound (Theorems 1-3 of conf_icde_FanWW14 assume exactly
  this kind of index);
* **refinement** -- witness counting intersects candidate sets with
  adjacency rows at C speed (``set.intersection`` over an id tuple)
  rather than chasing per-element hash lookups in Python.

Snapshots are identified by two integers: :attr:`snapshot_version`, the
source graph's mutation counter at freeze time, and
:attr:`snapshot_token`, a random 64-bit id that is unique across
processes as well.  Together they let
downstream caches (materialized view extensions, the query engine)
recognise that two id spaces are the same and safely exchange raw
integer ids; see ``MaterializedView.compact`` and the MatchJoin fast
path.

A snapshot can also be *refreshed* (:meth:`CompactGraph.refreshed`)
after a batch of edge updates: unchanged adjacency rows, label buckets
and attribute tables are shared with the predecessor snapshot, only the
touched rows are rebuilt, and -- crucially -- every pre-existing node
keeps its dense id (new nodes append at the end).  The refreshed
snapshot mints a fresh :attr:`snapshot_token` (its *content* differs)
but records the predecessor's token in :attr:`extends_token`, which is
the maintenance pipeline's licence to re-stamp extensions of unchanged
views onto the new token without recomputing them.

The public read API mirrors :class:`DataGraph` (``nodes()``,
``successors``, ``labels``, ``descendants_within`` ...) over the
*original node keys*, so every generic engine -- plain, dual, strong and
bounded simulation -- runs on a snapshot unchanged.  The id-space API
(``out_ids``, ``label_ids``, ``node_of`` ...) is what the dedicated fast
paths use.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import itemgetter, ne
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.conditions import AttributeCondition, Label, TrueCondition
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


def _part_width(part: Part) -> int:
    return sum(stop - start for start, stop in part[1])


def _new_token() -> int:
    """A fresh snapshot token: 64 random bits, so tokens minted in
    *different* processes cannot collide either (extensions frozen on
    separate workers may meet in one MatchJoin call).  Tokens survive
    pickling -- they are plain ints -- so extensions shipped to pool
    workers still recognise each other's id space."""
    return int.from_bytes(os.urandom(8), "big") | 1


class CompactGraph:
    """A frozen, integer-id snapshot of a :class:`DataGraph`.

    Build one with :meth:`DataGraph.freeze`, not directly.  The snapshot
    is immutable: there are no mutation methods, and the underlying
    arrays are shared freely by everything derived from it.
    """

    __slots__ = (
        "_nodes",
        "_ids",
        "_succ",
        "_pred",
        "_labels",
        "_attrs",
        "_label_ids",
        "_succ_sets",
        "_pred_sets",
        "_num_edges",
        "_columns",
        "_edge_columns",
        "_array_cache",
        "snapshot_version",
        "snapshot_token",
        "extends_token",
    )

    def __init__(self, graph, version: int) -> None:
        nodes: List[Node] = list(graph.nodes())
        ids: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        self._nodes = nodes
        self._ids = ids
        self._succ: List[Tuple[int, ...]] = [
            tuple(ids[w] for w in graph.successors(v)) for v in nodes
        ]
        self._pred: List[Tuple[int, ...]] = [
            tuple(ids[w] for w in graph.predecessors(v)) for v in nodes
        ]
        self._labels: List[FrozenSet[str]] = [graph.labels(v) for v in nodes]
        self._attrs: List[Dict[str, Any]] = [
            dict(graph.attrs(v)) if graph.attrs(v) else {} for v in nodes
        ]
        buckets: Dict[str, List[int]] = {}
        for i, labels in enumerate(self._labels):
            for label in labels:
                buckets.setdefault(label, []).append(i)
        self._label_ids: Dict[str, Tuple[int, ...]] = {
            label: tuple(bucket) for label, bucket in buckets.items()
        }
        # Node-key adjacency frozensets, built lazily for the generic
        # engines (dual/strong/bounded) that want set semantics.
        self._succ_sets: List[Optional[FrozenSet[Node]]] = [None] * len(nodes)
        self._pred_sets: List[Optional[FrozenSet[Node]]] = [None] * len(nodes)
        self._num_edges = graph.num_edges
        # Per-attribute candidate columns, built on first use.
        self._columns: Dict[str, Optional[Column]] = {}
        # The edge list as flat columns, built on first use.
        self._edge_columns: Optional[Tuple[array, array]] = None
        # The array kernel's derived arrays, see ``array_cache``.
        self._array_cache: Dict[str, Any] = {}
        self.snapshot_version = version
        self.snapshot_token = _new_token()
        self.extends_token = None

    @classmethod
    def refreshed(
        cls, old: "CompactGraph", graph, version: int, ops
    ) -> "CompactGraph":
        """A new snapshot of ``graph`` built by patching ``old``.

        ``ops`` is the ordered edge-op batch (``(op, source, target)``
        triples) separating ``old`` from the current graph state; the
        caller (``DataGraph.freeze`` via the edge-op journal) guarantees
        the only other changes are appended nodes.  Adjacency rows of
        untouched nodes, the label buckets and the attribute tables are
        shared with ``old``; every pre-existing node keeps its id, and
        new nodes take the next ids in graph order -- so id-space
        consumers of ``old`` remain valid in the result (recorded via
        :attr:`extends_token`).  Cost: O(|V|) pointer copies plus the
        touched adjacency, not O(|V| + |E|) reconstruction.
        """
        from itertools import islice

        new = cls.__new__(cls)
        n_old = len(old._nodes)
        appended = list(islice(graph.nodes(), n_old, None))
        touched_out = {s for _, s, _ in ops}
        touched_in = {t for _, _, t in ops}
        if appended:
            nodes = old._nodes + appended
            ids = dict(old._ids)
            labels = list(old._labels)
            attrs = list(old._attrs)
            label_ids = dict(old._label_ids)
            for i, node in enumerate(appended, start=n_old):
                ids[node] = i
                node_labels = graph.labels(node)
                node_attrs = graph.attrs(node)
                labels.append(node_labels)
                attrs.append(dict(node_attrs) if node_attrs else {})
                for label in node_labels:
                    # New ids exceed every old id, so appending keeps
                    # the bucket sorted.
                    label_ids[label] = label_ids.get(label, ()) + (i,)
        else:
            nodes = old._nodes
            ids = old._ids
            labels = old._labels
            attrs = old._attrs
            label_ids = old._label_ids
        succ = list(old._succ)
        pred = list(old._pred)
        succ_sets: List[Optional[FrozenSet[Node]]] = list(old._succ_sets)
        pred_sets: List[Optional[FrozenSet[Node]]] = list(old._pred_sets)
        for node in appended:
            succ.append(())
            pred.append(())
            succ_sets.append(None)
            pred_sets.append(None)
        for node in touched_out:
            i = ids[node]
            succ[i] = tuple(ids[w] for w in graph.successors(node))
            succ_sets[i] = None
        for node in touched_in:
            i = ids[node]
            pred[i] = tuple(ids[w] for w in graph.predecessors(node))
            pred_sets[i] = None
        new._nodes = nodes
        new._ids = ids
        new._succ = succ
        new._pred = pred
        new._labels = labels
        new._attrs = attrs
        new._label_ids = label_ids
        new._succ_sets = succ_sets
        new._pred_sets = pred_sets
        new._num_edges = graph.num_edges
        # An edge-only delta shares the attrs table, and with it the
        # columns (including those built later, on either snapshot).
        new._columns = old._columns if attrs is old._attrs else {}
        # Never the predecessor's: adjacency changed, and so may ``n``.
        new._edge_columns = None
        new._array_cache = {}
        new.snapshot_version = version
        new.snapshot_token = _new_token()
        new.extends_token = old.snapshot_token
        return new

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def freeze(self) -> "CompactGraph":
        """Snapshots are already frozen; return ``self`` (idempotence)."""
        return self

    @property
    def version(self) -> int:
        """Mutation-counter alias: a snapshot *is* its version (so a
        snapshot can stand in for a live graph, e.g. an engine booted
        from a saved snapshot directory, where ``graph.version ==
        snapshot.snapshot_version`` means "no refresh needed")."""
        return self.snapshot_version

    # ------------------------------------------------------------------
    # Integer-id API (the fast paths)
    # ------------------------------------------------------------------
    def id_of(self, node: Node) -> int:
        """The dense id of ``node`` (KeyError if absent)."""
        return self._ids[node]

    def node_of(self, i: int) -> Node:
        """The original node key behind id ``i``."""
        return self._nodes[i]

    @property
    def node_table(self) -> List[Node]:
        """The id -> node key decode table (shared, do not mutate)."""
        return self._nodes

    def out_ids(self, i: int) -> Tuple[int, ...]:
        """Successor ids of node id ``i`` (the CSR row)."""
        return self._succ[i]

    def in_ids(self, i: int) -> Tuple[int, ...]:
        """Predecessor ids of node id ``i``."""
        return self._pred[i]

    @property
    def succ_rows(self) -> List[Tuple[int, ...]]:
        """All successor rows, indexed by id (shared, do not mutate)."""
        return self._succ

    @property
    def pred_rows(self) -> List[Tuple[int, ...]]:
        """All predecessor rows, indexed by id (shared, do not mutate)."""
        return self._pred

    def edge_columns(self) -> Tuple[array, array]:
        """Every edge as parallel int32 ``(source id, target id)``
        columns in CSR order (sources ascending, each row's targets in
        row order) -- what the array Match kernel gathers its rows
        from.  Built from the successor rows on first use and kept on
        the snapshot, so the columns die with it; ``freeze()`` and
        ``refreshed()`` never pay for them (shared, do not mutate)."""
        columns = self._edge_columns
        if columns is None:
            succ = self._succ
            sources = map(repeat, range(len(succ)), map(len, succ))
            columns = self._edge_columns = (
                array("i", chain.from_iterable(sources)),
                array("i", chain.from_iterable(succ)),
            )
        return columns

    @property
    def array_cache(self) -> Dict[str, Any]:
        """What :mod:`repro.simulation.array_engine` derived from this
        snapshot (label buckets as index arrays, the node-key column):
        dies with it, is never a predecessor's and is never pickled."""
        return self._array_cache

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in CompactGraph.__slots__}
        state["_array_cache"] = {}  # NumPy arrays: the receiver rebuilds them
        return None, state

    def label_ids(self, label: str) -> Tuple[int, ...]:
        """Ids of every node carrying ``label`` (empty tuple if none)."""
        return self._label_ids.get(label, ())

    def labels_of(self, i: int) -> FrozenSet[str]:
        """Label set of node id ``i``."""
        return self._labels[i]

    def attrs_of(self, i: int) -> Dict[str, Any]:
        """Attribute dict of node id ``i``."""
        return self._attrs[i]

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` for every indexed label."""
        return {label: len(ids) for label, ids in self._label_ids.items()}

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

    def candidate_bound(self, condition) -> int:
        """An upper bound on ``len(candidate_ids(condition))`` from
        bucket sizes and slice widths alone (no set is built)."""
        return min(map(_part_width, self.index_parts(condition)[0]))

    def index_parts(self, condition) -> Tuple[List[Part], bool]:
        """The conjuncts of ``condition`` the index answers (never
        empty: every node, failing all else) and whether that is all of
        them."""
        parts: List[Part] = []
        exact = True
        if isinstance(condition, Label):
            label, atoms = condition.name, ()
        elif isinstance(condition, AttributeCondition):
            label, atoms = condition.label, condition.atoms
        else:
            label, atoms = "", ()
            exact = isinstance(condition, TrueCondition)
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
            n = len(self._nodes)
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
        return node in self._ids

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self.num_nodes + self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def edges(self) -> Iterator[Edge]:
        for i, row in enumerate(self._succ):
            source = self._nodes[i]
            for j in row:
                yield (source, self._nodes[j])

    def has_edge(self, source: Node, target: Node) -> bool:
        i = self._ids.get(source)
        if i is None:
            return False
        j = self._ids.get(target)
        return j is not None and j in self._succ[i]

    def successors(self, node: Node) -> FrozenSet[Node]:
        i = self._ids[node]
        cached = self._succ_sets[i]
        if cached is None:
            nodes = self._nodes
            cached = frozenset(nodes[j] for j in self._succ[i])
            self._succ_sets[i] = cached
        return cached

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        i = self._ids[node]
        cached = self._pred_sets[i]
        if cached is None:
            nodes = self._nodes
            cached = frozenset(nodes[j] for j in self._pred[i])
            self._pred_sets[i] = cached
        return cached

    def out_degree(self, node: Node) -> int:
        return len(self._succ[self._ids[node]])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[self._ids[node]])

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._labels[self._ids[node]]

    def attrs(self, node: Node) -> Dict[str, Any]:
        return self._attrs[self._ids[node]]

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label`` (index lookup, O(bucket))."""
        nodes = self._nodes
        return (nodes[i] for i in self._label_ids.get(label, ()))

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
                self._ids[source], bound
            ).items()
        }

    def __repr__(self) -> str:
        return (
            f"CompactGraph(nodes={self.num_nodes}, edges={self._num_edges}, "
            f"snapshot={self.snapshot_version})"
        )
