"""Edge-cut graph partitioning for the sharded backend.

A :class:`Partition` splits the node set of a data graph into ``k``
shards and records the *boundary table*: every cross-shard edge, plus
the per-shard set of foreign nodes its out-edges reach (the shard's
"ghosts").  This is the fragmentation underlying partial-evaluation
graph simulation (conf_icde_FanWW14 Sections III and VII assume views
and graphs too large for one machine): each shard must own the *full
out-adjacency* of its nodes, so a shard-local fixpoint only ever lacks
knowledge about the match status of its ghosts -- exactly the
assumptions the coordinator in :mod:`repro.shard.psim` refines.

Three pluggable strategies are provided (:data:`PARTITIONERS`):

* ``hash`` -- stable-hash assignment; balanced, oblivious to structure,
  the baseline every partitioning paper compares against;
* ``label`` -- label-aware: nodes sharing a primary label are packed
  into as few shards as balance allows, so candidate buckets of plain
  label conditions tend to be shard-local and boundary assumptions stay
  small for label-homogeneous patterns;
* ``bfs`` -- BFS block growing: contiguous neighborhoods go to the same
  shard, minimizing the edge cut on graphs with locality.

Strategies only produce the ``node -> shard`` assignment; everything
else (cut edges, ghosts, balance accounting) is derived uniformly by
:class:`Partition`, so custom strategies are one function away.
"""

from __future__ import annotations

import logging
import os
import zlib
from collections import deque
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple, Union

log = logging.getLogger(__name__)

Node = Hashable
Edge = Tuple[Node, Node]

Assignment = Dict[Node, int]


def _stable_hash(node: Node) -> int:
    """A process-independent hash (``hash(str)`` is salted per process,
    and a pickled :class:`~repro.shard.sharded.ShardedGraph` must agree
    with its origin about node placement)."""
    return zlib.crc32(repr(node).encode("utf-8"))


def hash_partition(graph, num_shards: int) -> Assignment:
    """Assign each node by stable hash: balanced in expectation, zero
    structural awareness (the maximum-cut baseline)."""
    return {node: _stable_hash(node) % num_shards for node in graph.nodes()}


def label_partition(graph, num_shards: int) -> Assignment:
    """Pack same-label nodes together, subject to a balance capacity.

    Nodes are bucketed by their lexicographically smallest label (the
    "primary" label; unlabeled nodes share one bucket).  Buckets are
    placed largest-first onto the least-filled shard, splitting only
    when a bucket exceeds the shard's remaining capacity
    ``ceil(|V| / k)`` -- so label buckets fragment across at most a few
    shards and balance stays within one capacity of perfect.
    """
    buckets: Dict[str, List[Node]] = {}
    for node in graph.nodes():
        labels = graph.labels(node)
        buckets.setdefault(min(labels) if labels else "", []).append(node)
    capacity = -(-len(graph) // num_shards) if len(graph) else 1
    fills = [0] * num_shards
    assignment: Assignment = {}
    for _, nodes in sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        index = 0
        while index < len(nodes):
            shard = min(range(num_shards), key=fills.__getitem__)
            room = capacity - fills[shard]
            take = len(nodes) - index if room <= 0 else min(room, len(nodes) - index)
            for node in nodes[index : index + take]:
                assignment[node] = shard
            fills[shard] += take
            index += take
    return assignment


def bfs_partition(graph, num_shards: int) -> Assignment:
    """Grow each shard as its own undirected BFS region of up to
    ``ceil(|V| / k)`` nodes.

    Every shard starts from a *fresh* seed (the first unassigned node
    in graph order) and swallows its neighborhood breadth-first until
    the block is full; the leftover frontier is then discarded, so one
    region's periphery never smears across the remaining shards (a
    single global BFS would, once its frontier spans several clusters).
    The last shard absorbs whatever remains.  Keeps contiguous regions
    co-located, which minimizes the edge cut on graphs with locality.
    """
    block = -(-len(graph) // num_shards) if len(graph) else 1
    assignment: Assignment = {}
    seeds = iter(list(graph.nodes()))
    for shard in range(num_shards):
        fill = 0
        frontier: deque = deque()
        capacity = block if shard < num_shards - 1 else len(graph)
        while fill < capacity:
            if not frontier:
                seed = next(
                    (node for node in seeds if node not in assignment), None
                )
                if seed is None:
                    break
                frontier.append(seed)
            node = frontier.popleft()
            if node in assignment:
                continue
            assignment[node] = shard
            fill += 1
            for neighbor in sorted(graph.successors(node), key=repr):
                if neighbor not in assignment:
                    frontier.append(neighbor)
            for neighbor in sorted(graph.predecessors(node), key=repr):
                if neighbor not in assignment:
                    frontier.append(neighbor)
    return assignment


#: Pluggable edge-cut strategies, keyed by CLI / engine name.
PARTITIONERS: Dict[str, Callable[[object, int], Assignment]] = {
    "hash": hash_partition,
    "label": label_partition,
    "bfs": bfs_partition,
}


class Partition:
    """A ``k``-way node split of one data graph, with its boundary table.

    Build one with :func:`make_partition`.  Everything is derived from
    the assignment against the graph *at construction time*; a
    partition does not follow later graph mutations (pair it with a
    frozen snapshot or rebuild, exactly like ``freeze()``).

    Attributes
    ----------
    strategy / num_shards:
        The producing strategy name and the shard count ``k``.
    """

    __slots__ = (
        "strategy",
        "num_shards",
        "_assignment",
        "_shards",
        "_cross",
        "_ghosts",
        "_internal_edges",
        "_num_edges",
    )

    def __init__(self, graph, assignment: Assignment, num_shards: int, strategy: str) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.strategy = strategy
        self.num_shards = num_shards
        self._assignment = assignment
        shards: List[List[Node]] = [[] for _ in range(num_shards)]
        for node in graph.nodes():
            shards[assignment[node]].append(node)
        self._shards = shards
        cross: List[Edge] = []
        ghosts: List[set] = [set() for _ in range(num_shards)]
        internal = 0
        for source, target in graph.edges():
            home = assignment[source]
            if assignment[target] == home:
                internal += 1
            else:
                cross.append((source, target))
                ghosts[home].add(target)
        self._cross = tuple(cross)
        self._ghosts: Tuple[FrozenSet[Node], ...] = tuple(
            frozenset(g) for g in ghosts
        )
        self._internal_edges = internal
        self._num_edges = graph.num_edges

    @classmethod
    def restore(
        cls,
        strategy: str,
        assignment: Assignment,
        shards: List[List[Node]],
        cross,
        ghosts,
        num_edges: int,
    ) -> "Partition":
        """Reassemble a partition from already-derived tables (a
        refreshed or reloaded sharded snapshot knows them without
        re-scanning a graph)."""
        partition = cls.__new__(cls)
        partition.strategy = strategy
        partition.num_shards = len(shards)
        partition._assignment = assignment
        partition._shards = shards
        partition._cross = tuple(cross)
        partition._ghosts = tuple(ghosts)
        partition._internal_edges = num_edges - len(partition._cross)
        partition._num_edges = num_edges
        return partition

    # ------------------------------------------------------------------
    # Assignment lookups
    # ------------------------------------------------------------------
    def shard_of(self, node: Node) -> int:
        """The shard owning ``node`` (KeyError if unassigned)."""
        return self._assignment[node]

    @property
    def assignment(self) -> Assignment:
        """The full ``node -> shard`` map (shared, do not mutate)."""
        return self._assignment

    def nodes_of(self, shard: int) -> List[Node]:
        """The nodes owned by ``shard``, in graph order (shared list)."""
        return self._shards[shard]

    def ghosts_of(self, shard: int) -> FrozenSet[Node]:
        """Foreign nodes that ``shard``'s out-edges reach (its ghosts)."""
        return self._ghosts[shard]

    # ------------------------------------------------------------------
    # Cut quality
    # ------------------------------------------------------------------
    @property
    def cross_edges(self) -> Tuple[Edge, ...]:
        """Every edge whose endpoints live in different shards."""
        return self._cross

    @property
    def edge_cut(self) -> int:
        """Number of cross-shard edges."""
        return len(self._cross)

    @property
    def edge_cut_fraction(self) -> float:
        """``cut / |E|`` -- the classic partition quality measure."""
        return len(self._cross) / self._num_edges if self._num_edges else 0.0

    @property
    def shard_sizes(self) -> List[int]:
        """Node count per shard."""
        return [len(nodes) for nodes in self._shards]

    @property
    def boundary_nodes(self) -> FrozenSet[Node]:
        """All nodes that are a ghost of at least one shard -- the nodes
        whose match status the partial-evaluation coordinator tracks."""
        return frozenset().union(*self._ghosts) if self._ghosts else frozenset()

    @property
    def balance(self) -> float:
        """``max shard size / ideal size`` (1.0 is perfect; 0 when empty)."""
        sizes = self.shard_sizes
        total = sum(sizes)
        if not total:
            return 0.0
        return max(sizes) / (total / self.num_shards)

    def stats(self) -> Dict[str, object]:
        """A JSON-ready summary (the ``repro shard`` / ``repro stats``
        payload)."""
        return {
            "strategy": self.strategy,
            "shards": self.num_shards,
            "sizes": self.shard_sizes,
            "edge_cut": self.edge_cut,
            "edge_cut_fraction": self.edge_cut_fraction,
            "boundary_nodes": len(self.boundary_nodes),
            "balance": self.balance,
        }

    def __repr__(self) -> str:
        return (
            f"Partition({self.strategy!r}, shards={self.num_shards}, "
            f"cut={self.edge_cut}/{self._num_edges})"
        )


def make_partition(graph, num_shards: int, strategy: str = "hash") -> Partition:
    """Partition ``graph`` into ``num_shards`` shards.

    ``strategy`` names an entry of :data:`PARTITIONERS`.  Every node is
    assigned to exactly one shard; shards may be empty when
    ``num_shards`` exceeds what the strategy can fill.
    """
    if strategy not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {strategy!r}; expected one of "
            f"{sorted(PARTITIONERS)}"
        )
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    assignment = PARTITIONERS[strategy](graph, num_shards)
    partition = Partition(graph, assignment, num_shards, strategy)
    log.debug(
        "%s partition: %d shards, %d/%d edges cut (%.1f%%)",
        strategy, num_shards, partition.edge_cut, graph.num_edges,
        partition.edge_cut_fraction * 100,
    )
    return partition


# ----------------------------------------------------------------------
# Streaming (out-of-core) partitioning
# ----------------------------------------------------------------------
class StreamingHashPartitioner:
    """Hash-partition an edge *stream* into per-shard spill files.

    The in-memory partitioners above need the whole graph; this one
    never does.  Edges arrive one at a time via :meth:`add`, are routed
    by the same stable hash as :func:`hash_partition` (so a streamed
    build places every node exactly where ``make_partition(...,
    "hash")`` would), and are appended to line-oriented spill files --
    one per shard -- under a byte budget: per-shard write buffers are
    flushed to disk whenever their combined size exceeds
    ``budget_bytes``, so resident memory stays flat no matter how many
    edges flow through.

    Two record kinds land in the spill files (tab-separated lines):

    * ``e <source> <target>`` -- an edge, spilled to the *source's* home
      shard (shards own the full out-adjacency of their nodes);
    * ``n <target>`` -- for a cross-shard edge only: tells the target's
      home shard the node exists even if it never appears as a source
      there (so isolated-in-their-shard targets are still owned).

    Use as a context manager; iterate :meth:`shard_records` after all
    edges are added (it flushes first).
    Node ids must be strings without tabs or newlines (edge-list inputs
    always satisfy this); anything else cannot be spilled losslessly.
    """

    def __init__(
        self,
        num_shards: int,
        spill_dir: Union[str, Path],
        budget_bytes: int = 64 << 20,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.budget_bytes = max(1, budget_bytes)
        self._dir = Path(spill_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._shard_paths = [
            self._dir / f"shard-{i:03d}.spill" for i in range(num_shards)
        ]
        self._buffers: List[List[str]] = [[] for _ in range(num_shards)]
        self._buffered = 0
        self.edges = 0
        self.cut_edges = 0
        self.spill_bytes = 0
        self._closed = False

    # -- routing -------------------------------------------------------
    def shard_of(self, node: Node) -> int:
        """Home shard of ``node`` -- identical to ``hash`` strategy
        placement, so streamed and in-memory builds agree."""
        return _stable_hash(node) % self.num_shards

    @staticmethod
    def _check_key(node: str) -> str:
        if "\t" in node or "\n" in node or "\r" in node:
            raise ValueError(
                f"node id {node!r} contains a tab/newline; spill records "
                "are tab-separated lines and cannot hold it"
            )
        return node

    def add(self, source: str, target: str) -> None:
        """Route one edge to its spill files (flushing on budget)."""
        source = self._check_key(source)
        target = self._check_key(target)
        home = self.shard_of(source)
        record = f"e\t{source}\t{target}\n"
        self._buffers[home].append(record)
        self._buffered += len(record)
        self.edges += 1
        away = self.shard_of(target)
        if away != home:
            self.cut_edges += 1
            presence = f"n\t{target}\n"
            self._buffers[away].append(presence)
            self._buffered += len(presence)
        if self._buffered >= self.budget_bytes:
            self.flush()

    def add_edges(self, edges) -> None:
        """Consume an edge iterable (never materialized)."""
        for source, target in edges:
            self.add(source, target)

    # -- spilling ------------------------------------------------------
    def flush(self) -> None:
        """Append every buffer to its spill file and drop it."""
        for i, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            chunk = "".join(buffer)
            with open(self._shard_paths[i], "a", encoding="utf-8") as handle:
                handle.write(chunk)
            self.spill_bytes += len(chunk)
            self._buffers[i] = []
        self._buffered = 0

    def shard_records(self, shard: int) -> Iterator[Tuple[str, str, Optional[str]]]:
        """Stream shard ``shard``'s spill records as ``(kind, a, b)``
        tuples (``("e", source, target)`` or ``("n", node, None)``), in
        spill order."""
        self.flush()
        path = self._shard_paths[shard]
        if not path.exists():
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if parts[0] == "e":
                    yield ("e", parts[1], parts[2])
                else:
                    yield ("n", parts[1], None)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush buffers and delete every spill file."""
        if self._closed:
            return
        self._buffers = [[] for _ in range(self.num_shards)]
        self._buffered = 0
        for path in self._shard_paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._closed = True

    def __enter__(self) -> "StreamingHashPartitioner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamingHashPartitioner(shards={self.num_shards}, "
            f"edges={self.edges}, cut={self.cut_edges}, "
            f"spilled={self.spill_bytes}B)"
        )
