"""Directed data graphs with node labels and attributes.

A data graph (Section II-A of the paper) is a directed graph
``G = (V, E, L)`` where ``L`` assigns each node a *set* of labels drawn
from an alphabet.  We additionally let nodes carry an attribute
dictionary so that patterns may use Boolean search conditions such as
``C = "Music" and V >= 10_000`` (Fig. 7 of the paper); plain labels are
kept in a separate set for fast label-only matching.

The class is deliberately dictionary-based (adjacency sets) rather than a
wrapper over an external library: the matching engines need O(1) access
to successor/predecessor sets and cheap membership tests, and nothing
else.  Two read-path accelerators ride on top of the dictionaries:

* an incrementally-maintained **label index** (label -> node set), so
  candidate seeding in the matching engines is O(bucket) instead of a
  full-node scan;
* :meth:`freeze`, which produces an immutable
  :class:`~repro.graph.compact.CompactGraph` snapshot -- dense integer
  ids, CSR adjacency, label and bucket tables -- for
  read-heavy serving.  Snapshots are cached against the mutation
  :attr:`version` counter, so repeated freezes of an unchanged graph
  are free.

The graph additionally keeps a bounded **edge-op journal**: every edge
insertion/deletion since the journal floor, in application order.  As
long as only journal-safe mutations happened (edge churn plus brand-new
nodes), :meth:`freeze` *refreshes* the previous snapshot through
:meth:`CompactGraph.refreshed` -- the tables are reused, only the
touched rows are rebuilt (into a patch overlay), and dense ids stay
stable -- instead of paying a full re-freeze.  Label/attribute
edits on existing nodes and node removals break the journal, falling
back to a full rebuild at the next freeze.  :meth:`edge_changes_since`
exposes the same journal to external snapshot consumers (the sharded
backend refreshes per-shard snapshots from it).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.compact import CompactGraph
    from repro.views.maintenance import Delta

Node = Hashable
Edge = Tuple[Node, Node]

#: One journal entry / applied delta op: ``(op, source, target)`` with
#: ``op`` in ``{"insert", "delete"}``.
EdgeOp = Tuple[str, Node, Node]

#: Journal length past which the oldest half is dropped (raising the
#: answerable floor) -- bounds memory under unbounded churn.
_OPLOG_CAP = 65536


class DataGraph:
    """A directed graph whose nodes carry label sets and attributes.

    Parameters
    ----------
    nodes:
        Optional iterable of ``(node, labels, attrs)`` triples; ``labels``
        may be a single string or an iterable of strings, ``attrs`` a
        mapping or ``None``.
    edges:
        Optional iterable of ``(source, target)`` pairs.  Nodes appearing
        only in ``edges`` are created with empty labels.

    Examples
    --------
    >>> g = DataGraph()
    >>> g.add_node("Ann", labels="PM")
    >>> g.add_node("Bob", labels="DBA", attrs={"years": 4})
    >>> g.add_edge("Ann", "Bob")
    >>> sorted(g.successors("Ann"))
    ['Bob']
    >>> g.labels("Bob")
    frozenset({'DBA'})
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_labels",
        "_attrs",
        "_label_index",
        "_num_edges",
        "_version",
        "_frozen",
        "_oplog",
        "_oplog_floor",
    )

    def __init__(
        self,
        nodes: Optional[Iterable[Tuple[Node, Any, Optional[Mapping[str, Any]]]]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._labels: Dict[Node, FrozenSet[str]] = {}
        self._attrs: Dict[Node, Dict[str, Any]] = {}
        self._label_index: Dict[str, Set[Node]] = {}
        self._num_edges = 0
        self._version = 0
        self._frozen = None
        # Edge-op journal: (version-after, op, source, target) entries,
        # answerable back to _oplog_floor (non-edge mutations raise the
        # floor to the current version, invalidating refresh paths).
        self._oplog: List[Tuple[int, str, Node, Node]] = []
        self._oplog_floor = 0
        if nodes is not None:
            for node, labels, attrs in nodes:
                self.add_node(node, labels=labels, attrs=attrs)
        if edges is not None:
            for source, target in edges:
                self.add_edge(source, target)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node: Node,
        labels: Any = (),
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Add ``node`` (or update its labels/attributes if present)."""
        is_new = node not in self._succ
        if is_new:
            self._succ[node] = set()
            self._pred[node] = set()
            self._labels[node] = frozenset()
            self._attrs[node] = {}
            self._version += 1
        if labels:
            new = frozenset([labels]) if isinstance(labels, str) else frozenset(labels)
            fresh = new - self._labels[node]
            if fresh:
                self._labels[node] = self._labels[node] | fresh
                for label in fresh:
                    self._label_index.setdefault(label, set()).add(node)
                self._version += 1
                if not is_new:
                    self._break_oplog()
        if attrs:
            self._attrs[node].update(attrs)
            self._version += 1
            if not is_new:
                self._break_oplog()

    def add_edge(self, source: Node, target: Node) -> None:
        """Add the directed edge ``source -> target`` (idempotent)."""
        if source not in self._succ:
            self.add_node(source)
        if target not in self._succ:
            self.add_node(target)
        if target not in self._succ[source]:
            self._succ[source].add(target)
            self._pred[target].add(source)
            self._num_edges += 1
            self._version += 1
            self._log_op("insert", source, target)

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        for source, target in edges:
            self.add_edge(source, target)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the edge ``source -> target``; raise ``KeyError`` if absent."""
        if source not in self._succ or target not in self._succ[source]:
            raise KeyError((source, target))
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        self._num_edges -= 1
        self._version += 1
        self._log_op("delete", source, target)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._succ:
            raise KeyError(node)
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        for label in self._labels[node]:
            bucket = self._label_index[label]
            bucket.discard(node)
            if not bucket:
                del self._label_index[label]
        del self._succ[node]
        del self._pred[node]
        del self._labels[node]
        del self._attrs[node]
        self._version += 1
        self._break_oplog()

    # ------------------------------------------------------------------
    # Edge-op journal
    # ------------------------------------------------------------------
    def _log_op(self, op: str, source: Node, target: Node) -> None:
        log = self._oplog
        log.append((self._version, op, source, target))
        if len(log) > _OPLOG_CAP:
            half = len(log) // 2
            self._oplog_floor = log[half - 1][0]
            del log[:half]

    def _break_oplog(self) -> None:
        """A non-edge mutation happened: the journal can no longer
        explain the gap between any earlier version and now."""
        self._oplog.clear()
        self._oplog_floor = self._version

    def edge_changes_since(self, version: int) -> Optional[List[EdgeOp]]:
        """The edge insertions/deletions applied since ``version``, in
        order -- or ``None`` when the journal cannot vouch for the gap
        (label/attribute edits on existing nodes or node removals
        happened, or ``version`` predates the journal floor).

        A non-``None`` answer guarantees the *only* other changes since
        ``version`` are brand-new nodes (auto-created by ``add_edge`` or
        added explicitly), which appear after all pre-existing nodes in
        iteration order -- exactly the contract snapshot refresh paths
        (:meth:`freeze`, ``ShardedGraph.refreshed``) rely on.
        """
        if version < self._oplog_floor:
            return None
        ops: List[EdgeOp] = []
        for entry_version, op, source, target in reversed(self._oplog):
            if entry_version <= version:
                break
            ops.append((op, source, target))
        ops.reverse()
        return ops

    def apply_delta(self, delta: "Delta") -> List[EdgeOp]:
        """Apply a :class:`~repro.views.maintenance.Delta` batch.

        Ops are applied in order; already-present insertions and
        missing-edge deletions are skipped (a delta is a statement of
        intent, not a transcript).  Returns the ops actually applied.
        The journal records them, so the next :meth:`freeze` refreshes
        the cached snapshot instead of rebuilding it.
        """
        applied: List[EdgeOp] = []
        for op, source, target in delta:
            if op == "insert":
                if self.has_edge(source, target):
                    continue
                self.add_edge(source, target)
            else:
                if not self.has_edge(source, target):
                    continue
                self.remove_edge(source, target)
            applied.append((op, source, target))
        return applied

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self.num_nodes + self.num_edges

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every structural, label or
        attribute change.  :meth:`freeze` snapshots carry the version
        they were taken at, so downstream caches can tell whether a
        snapshot is still current."""
        return self._version

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def has_edge(self, source: Node, target: Node) -> bool:
        targets = self._succ.get(source)
        return targets is not None and target in targets

    def successors(self, node: Node) -> Set[Node]:
        return self._succ[node]

    def predecessors(self, node: Node) -> Set[Node]:
        return self._pred[node]

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._labels[node]

    def attrs(self, node: Node) -> Dict[str, Any]:
        return self._attrs[node]

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label`` (index lookup, O(bucket))."""
        return iter(self._label_index.get(label, ()))

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` for every indexed label."""
        return {label: len(bucket) for label, bucket in self._label_index.items()}

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def descendants_within(self, source: Node, bound: int) -> Dict[Node, int]:
        """Map each node reachable from ``source`` by a path of length in
        ``[1, bound]`` to its shortest such distance.

        The empty path does not count: ``source`` itself appears in the
        result only if it lies on a cycle of length <= ``bound``.
        """
        if bound < 1:
            return {}
        # Track what has been queued, not just what has been popped:
        # otherwise a node is appended once per in-edge and the queue
        # grows to O(|E| * bound) instead of O(|V|).
        start = self._succ[source]
        dist: Dict[Node, int] = {}
        queued = set(start)
        frontier = deque((target, 1) for target in start)
        while frontier:
            node, d = frontier.popleft()
            dist[node] = d
            if d < bound:
                for target in self._succ[node]:
                    if target not in queued:
                        queued.add(target)
                        frontier.append((target, d + 1))
        return dist

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def freeze(self) -> "CompactGraph":
        """An immutable :class:`~repro.graph.compact.CompactGraph`
        snapshot of the current state.

        The snapshot is cached: repeated calls return the same object
        until the next mutation bumps :attr:`version`.  When the gap
        since the cached snapshot is pure edge churn (per the edge-op
        journal), the stale snapshot is *refreshed* through
        :meth:`CompactGraph.refreshed` -- the tables and every row
        decoded so far but the touched ones are reused and node ids
        stay stable -- instead of rebuilt, so the integer fast paths
        survive maintenance updates at affected-area cost.
        """
        from repro.graph.compact import CompactGraph

        frozen = self._frozen
        if frozen is None or frozen.snapshot_version != self._version:
            ops = (
                None
                if frozen is None
                else self.edge_changes_since(frozen.snapshot_version)
            )
            # Refresh only while the touched area is small; past ~a
            # quarter of the edge set a full rebuild is no slower and
            # produces a snapshot free of journal bookkeeping.
            if ops is not None and len(ops) < max(64, self._num_edges // 4):
                frozen = CompactGraph.refreshed(frozen, self, self._version, ops)
            else:
                frozen = CompactGraph(self, self._version)
            self._frozen = frozen
        return frozen

    def copy(self) -> "DataGraph":
        """Return an independent deep-enough copy (attribute dicts copied)."""
        clone = DataGraph()
        for node in self._succ:
            clone._succ[node] = set(self._succ[node])
            clone._pred[node] = set(self._pred[node])
            clone._labels[node] = self._labels[node]
            clone._attrs[node] = dict(self._attrs[node])
        for label, bucket in self._label_index.items():
            clone._label_index[label] = set(bucket)
        clone._num_edges = self._num_edges
        clone._version = self._version
        # The clone starts with an empty journal: it can only vouch for
        # changes applied to *it* from this point on.
        clone._oplog_floor = self._version
        return clone

    def __repr__(self) -> str:
        return f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges})"
