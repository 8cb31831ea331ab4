"""The sharded graph backend: per-shard snapshots + cross-shard tables.

A :class:`ShardedGraph` is the in-process reproduction of a fragmented
graph deployment: the node set is split by a
:class:`~repro.shard.partitioner.Partition`, and each shard holds a
frozen :class:`~repro.graph.compact.CompactGraph` snapshot of

* its own nodes (labels, attributes, and their **complete**
  out-adjacency), and
* *ghost* copies of the foreign nodes its out-edges reach -- label and
  attribute data only, no out-edges of their own.

Because every node's full out-adjacency lives in exactly one shard, a
shard-local simulation fixpoint is exact up to the match status of its
ghosts; :mod:`repro.shard.psim` exploits this for partial-evaluation
matching, and :mod:`repro.shard.materialize` for per-shard view
materialization.

Like :class:`CompactGraph`, a sharded graph is an immutable snapshot
with the full ``DataGraph``-compatible read API over original node
keys, so every generic engine (dual, strong, bounded, distance oracles)
runs on it unchanged.  It also mints a **composite id space**: every
owned node gets a dense global id (shard-major order), and each
shard carries a row translating its local snapshot ids -- ghosts
included -- to global ids.  The composite ``snapshot_token`` /
``node_table`` make merged extensions indistinguishable from
single-snapshot ones, so the MatchJoin id-space fast path engages
unchanged on views materialized shard by shard.

The composite bookkeeping is held as **flat int rows** -- per shard the
local -> global id row and, per (owner, holder) pair, the bridge pairs
``(owner-local id, ghost id)`` -- in one small
:class:`~repro.graph.flatbuf.FlatStore` per shard
(:func:`boundary_stores` computes them, in memory and at ingest alike).
A snapshot directory persists exactly these stores, so reloading a
sharded graph attaches them instead of recomputing anything, and every
*name-keyed* table (home map, ghost maps, decode table, partition) is
derived from the shards' node tables on first name-based access -- which
an id-space evaluation (:mod:`repro.shard.psim`) never makes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.compact import CompactGraph, _new_token
from repro.graph.flatbuf import FlatStore

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph
    from repro.shard.partitioner import Partition

Node = Hashable
Edge = Tuple[Node, Node]

#: One boundary bridge: ``(holder shard, {owner-local id: ghost id in
#: the holder})``; the dict's key view is the set of exported ids.
Bridge = Tuple[int, Dict[int, int]]


def _offsets_of(own_counts: Sequence[int]) -> Tuple[int, ...]:
    """Composite id offset of every shard (own nodes are numbered
    shard-major, so these are the running sums of the own counts)."""
    offsets: List[int] = []
    total = 0
    for count in own_counts:
        offsets.append(total)
        total += count
    return tuple(offsets)


def boundary_stores(
    names_of: Callable[[int], Sequence[Node]], own_counts: Sequence[int]
) -> Iterator[FlatStore]:
    """The boundary rows of every shard, one holder at a time, each
    packed into an in-process :class:`FlatStore` ready to ``save()``.

    ``names_of(i)`` is shard ``i``'s node table (own nodes first, ghosts
    after).  For holder ``h`` the store's int tables are

    * ``global_row`` -- local id -> composite global id, ghosts included
      (a ghost's global id is its owner's);
    * ``owners:<o>`` / ``ghosts:<o>`` -- for each owner ``o`` ghosted
      here, the parallel rows of the bridge ``o -> h``: owner-local id
      and the ghost id it has in ``h``.

    Only one holder's ghost map and one owner's node table are live at a
    time, so the peak is a shard pair whatever the graph's size: each
    owner's own names stream past the holder's ghost map once.
    """
    offsets = _offsets_of(own_counts)
    for holder, own in enumerate(own_counts):
        names = names_of(holder)
        row = array("q", range(offsets[holder], offsets[holder] + own))
        ghost_of = {
            name: ghost for ghost, name in enumerate(islice(names, own, None), own)
        }
        row.extend([-1] * len(ghost_of))
        tables = {"global_row": row}
        del names
        unresolved = len(ghost_of)
        for owner, owner_own in enumerate(own_counts):
            if not unresolved:
                break
            if owner == holder:
                continue
            base = offsets[owner]
            owners = array("q")
            ghosts = array("q")
            hits = map(ghost_of.get, islice(names_of(owner), owner_own))
            for local, ghost in enumerate(hits):
                if ghost is not None:
                    owners.append(local)
                    ghosts.append(ghost)
                    row[ghost] = base + local
            if owners:
                tables[f"owners:{owner}"] = owners
                tables[f"ghosts:{owner}"] = ghosts
                unresolved -= len(owners)
        if unresolved:
            raise ValueError(
                f"shard {holder} ghosts {unresolved} node(s) no shard owns"
            )
        yield FlatStore.pack(tables, {})


def boundary_summary(header: Dict[str, Tuple[str, int, int]]) -> Dict[str, int]:
    """Row counts of one boundary store, read off its table directory
    (``repro snapshot info`` reports them without attaching anything)."""
    return {
        "rows": header["global_row"][2] // 8,
        "bridge_pairs": sum(
            nbytes // 8
            for name, (_, _, nbytes) in header.items()
            if name.startswith("owners:")
        ),
    }


def _local_snapshot(graph: "DataGraph", partition: "Partition", index: int) -> CompactGraph:
    """Shard ``index``'s frozen local graph: own nodes first (so local
    ids below the own count are internal) with their full out-adjacency,
    then ghosts picking up label/attribute copies."""
    from repro.graph.digraph import DataGraph

    local = DataGraph()
    for node in partition.nodes_of(index):
        local.add_node(node, labels=graph.labels(node), attrs=graph.attrs(node))
    for node in partition.nodes_of(index):
        for target in graph.successors(node):
            local.add_edge(node, target)
    for ghost in partition.ghosts_of(index):
        local.add_node(ghost, labels=graph.labels(ghost), attrs=graph.attrs(ghost))
    return local.freeze()


class ShardedGraph:
    """An immutable, partition-aligned snapshot of a :class:`DataGraph`.

    Parameters
    ----------
    graph:
        The source graph ``G``; read once at construction (like
        ``freeze()``, the sharded snapshot does not follow later
        mutations).
    partition:
        A :class:`Partition` of ``graph``, or ``None`` to hash-partition
        into ``num_shards`` shards here.
    num_shards / strategy:
        Used only when ``partition`` is ``None``.
    """

    def __init__(
        self,
        graph: "DataGraph",
        partition: Optional["Partition"] = None,
        num_shards: int = 2,
        strategy: str = "hash",
    ) -> None:
        if partition is None:
            from repro.shard.partitioner import make_partition

            partition = make_partition(graph, num_shards, strategy)
        k = partition.num_shards
        self._assemble(
            [_local_snapshot(graph, partition, i) for i in range(k)],
            [len(partition.nodes_of(i)) for i in range(k)],
            None,
            strategy=partition.strategy,
            num_edges=graph.num_edges,
            edge_cut=partition.edge_cut,
            version=graph.version,
            token=_new_token(),
            extends_token=None,
        )
        self.partition = partition  # known: pre-empts the lazy rebuild

    @classmethod
    def attach(cls, shards, own_counts, boundary, **meta) -> "ShardedGraph":
        """Assemble a sharded graph from per-shard snapshots and their
        boundary stores (what a snapshot directory persists, and what a
        pickle carries); ``boundary=None`` computes the stores."""
        new = cls.__new__(cls)
        new._assemble(shards, own_counts, boundary, **meta)
        return new

    def _assemble(
        self,
        shards: Sequence[CompactGraph],
        own_counts: Sequence[int],
        boundary: Optional[Sequence[FlatStore]],
        *,
        strategy: str,
        num_edges: int,
        edge_cut: int,
        version: int,
        token,
        extends_token,
    ) -> None:
        self._shards: Tuple[CompactGraph, ...] = tuple(shards)
        self._own_counts: Tuple[int, ...] = tuple(own_counts)
        # Composite id space: global id = offset of home shard + local
        # id there (own nodes precede ghosts, so this is dense).
        self._offsets = _offsets_of(self._own_counts)
        self._num_nodes = sum(self._own_counts)
        if boundary is None:
            boundary = boundary_stores(
                lambda i: self._shards[i].node_table, self._own_counts
            )
        self._boundary: Tuple[FlatStore, ...] = tuple(boundary)
        self.strategy = strategy
        self._num_edges = num_edges
        self._edge_cut = edge_cut
        self.snapshot_version = version
        self.snapshot_token = token
        self.extends_token = extends_token

    def __reduce__(self):
        # The per-shard snapshots and the int boundary rows; name-keyed
        # tables are re-derived by whoever asks for them after loading.
        meta = {
            "strategy": self.strategy,
            "num_edges": self._num_edges,
            "edge_cut": self._edge_cut,
            "version": self.snapshot_version,
            "token": self.snapshot_token,
            "extends_token": self.extends_token,
        }
        return (_attach_sharded, (self._shards, self._own_counts, self._boundary, meta))

    # ------------------------------------------------------------------
    # Delta refresh
    # ------------------------------------------------------------------
    def refreshed(self, graph: "DataGraph", ops) -> "ShardedGraph":
        """A new sharded snapshot of ``graph`` built by patching this one.

        ``ops`` is the ordered edge-op batch (``(op, source, target)``
        triples, e.g. from
        :meth:`~repro.graph.digraph.DataGraph.edge_changes_since`)
        separating this snapshot from the current graph state; the
        caller guarantees the only other changes are brand-new nodes.

        Each op is routed to the shard *owning* its source (out-
        adjacency lives with the owner), and only those shards' frozen
        snapshots are rebuilt -- every other shard's
        :class:`CompactGraph` is reused by reference.  New nodes are
        assigned to the last shard, whose own nodes sit at the top of
        the composite id space, so **every pre-existing node keeps its
        composite global id**; the boundary rows are re-derived from
        the updated cut.  The result mints a fresh composite
        ``snapshot_token`` and records this snapshot's token in
        :attr:`extends_token`, so extensions of views an update did not
        touch can be re-stamped onto it and MatchJoin's id-space path
        re-engages immediately.
        """
        from repro.shard.partitioner import Partition

        old_partition = self.partition
        k = old_partition.num_shards
        new_nodes = [node for node in graph.nodes() if node not in self._home]

        assignment = dict(old_partition.assignment)
        for node in new_nodes:
            assignment[node] = k - 1
        shards = list(old_partition._shards)
        if new_nodes:
            shards[k - 1] = shards[k - 1] + new_nodes
        # Net effect per edge (an edge may be deleted and re-inserted
        # within one batch; only its final state matters for the cut).
        final: Dict[Edge, str] = {}
        for op, source, target in ops:
            final[(source, target)] = op
        cross = [edge for edge in old_partition.cross_edges if edge not in final]
        for edge, op in final.items():
            if op == "insert" and assignment[edge[0]] != assignment[edge[1]]:
                cross.append(edge)
        affected = {assignment[source] for _, source, _ in ops}
        if new_nodes:
            affected.add(k - 1)
        ghosts = list(old_partition._ghosts)
        for index in affected:
            ghosts[index] = frozenset(
                target
                for source, target in cross
                if assignment[source] == index
            )
        partition = Partition.restore(
            old_partition.strategy, assignment, shards, cross, ghosts,
            graph.num_edges,
        )

        # Rebuild the affected shards, reuse the rest.  Only the last
        # shard can have grown, so every offset -- and with it every
        # pre-existing composite id -- is unchanged.
        shard_snapshots = list(self._shards)
        for index in sorted(affected):
            shard_snapshots[index] = _local_snapshot(graph, partition, index)
        new = ShardedGraph.attach(
            shard_snapshots,
            [len(partition.nodes_of(i)) for i in range(k)],
            None,
            strategy=partition.strategy,
            num_edges=graph.num_edges,
            edge_cut=partition.edge_cut,
            version=graph.version,
            token=_new_token(),
            extends_token=self.snapshot_token,
        )
        new.partition = partition
        return new

    # ------------------------------------------------------------------
    # Shard access (what psim / materialize read)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[CompactGraph, ...]:
        """The per-shard frozen snapshots (own nodes + ghosts)."""
        return self._shards

    def shard(self, index: int) -> CompactGraph:
        return self._shards[index]

    def own_count(self, index: int) -> int:
        """Number of *owned* (non-ghost) nodes in shard ``index``; local
        ids below this are internal, at or above are ghosts."""
        return self._own_counts[index]

    def boundary_store(self, index: int) -> FlatStore:
        """Shard ``index``'s boundary rows (see :func:`boundary_stores`)."""
        return self._boundary[index]

    @cached_property
    def _global_rows(self) -> Tuple[List[int], ...]:
        # Plain lists: the kernels index these per match pair.
        return tuple(
            store.ints("global_row").tolist() for store in self._boundary
        )

    def global_row(self, index: int) -> List[int]:
        """Shard ``index``'s local id -> composite global id table."""
        return self._global_rows[index]

    @cached_property
    def _bridges(self) -> Tuple[Tuple[Bridge, ...], ...]:
        return tuple(
            tuple(
                (
                    holder,
                    dict(zip(store.ints(f"owners:{owner}"), store.ints(f"ghosts:{owner}"))),
                )
                for holder, store in enumerate(self._boundary)
                if f"owners:{owner}" in store.header
            )
            for owner in range(len(self._shards))
        )

    def bridges(self, index: int) -> Tuple[Bridge, ...]:
        """Shard ``index``'s boundary bridges: one ``(holder shard,
        owner-local id -> ghost id map)`` per shard ghosting any of its
        nodes, built from the bridge rows on first request.

        This is the exchange step's hot path: the coordinator
        intersects a removal batch with the map's key view in one C
        call and translates the survivors through it.
        """
        return self._bridges[index]

    # -- name-keyed tables: derived on first name-based access ---------
    @cached_property
    def _home(self) -> Dict[Node, int]:
        """``{owned node: home shard}``."""
        home: Dict[Node, int] = {}
        for index, (shard, own) in enumerate(zip(self._shards, self._own_counts)):
            home.update(dict.fromkeys(islice(shard.node_table, own), index))
        return home

    @cached_property
    def _ghost_ids(self) -> Tuple[Dict[Node, int], ...]:
        return tuple(
            {
                node: ghost
                for ghost, node in enumerate(
                    islice(shard.node_table, own, None), own
                )
            }
            for shard, own in zip(self._shards, self._own_counts)
        )

    @cached_property
    def _ghost_shards(self) -> Dict[Node, Tuple[int, ...]]:
        holders: Dict[Node, Tuple[int, ...]] = {}
        for index, ghosts in enumerate(self._ghost_ids):
            for node in ghosts:
                holders[node] = holders.get(node, ()) + (index,)
        return holders

    @cached_property
    def partition(self) -> "Partition":
        """The node split behind this snapshot.  A snapshot built from
        a graph keeps the partition it was given; a reloaded one
        re-derives it (assignment, cut edges, ghost sets) from the
        shards on first request."""
        from repro.shard.partitioner import Partition

        return Partition.restore(
            self.strategy,
            self._home,
            [
                list(islice(shard.node_table, own))
                for shard, own in zip(self._shards, self._own_counts)
            ],
            self._cut_edges(),
            [frozenset(ghosts) for ghosts in self._ghost_ids],
            self._num_edges,
        )

    def _cut_edges(self) -> Iterator[Edge]:
        """Every cross-shard edge: the in-edges of each shard's ghosts
        (a ghost has no out-edges, and only own nodes point at it)."""
        for shard, own in zip(self._shards, self._own_counts):
            names = shard.node_table
            pred = shard.pred_rows
            for ghost in range(own, len(pred)):
                target = names[ghost]
                for source in pred[ghost]:
                    yield (names[source], target)

    def ghost_ids(self, index: int) -> Dict[Node, int]:
        """Shard ``index``'s ghosts as ``{node key: local id}``."""
        return self._ghost_ids[index]

    def ghost_shards(self, node: Node) -> Tuple[int, ...]:
        """The shards holding a ghost copy of ``node`` (may be empty)."""
        return self._ghost_shards.get(node, ())

    def owner_id(self, node: Node) -> Tuple[int, int]:
        """``(home shard, local id there)`` of an owned node."""
        home = self._home[node]
        return home, self._shards[home].id_of(node)

    @property
    def boundary_nodes(self) -> FrozenSet[Node]:
        """Nodes ghosted into at least one foreign shard."""
        return frozenset(self._ghost_shards)

    # ------------------------------------------------------------------
    # Composite id space (what extension rows are encoded in)
    # ------------------------------------------------------------------
    def id_of(self, node: Node) -> int:
        """The composite global id of ``node`` (KeyError if absent)."""
        home = self._home[node]
        return self._offsets[home] + self._shards[home].id_of(node)

    def node_of(self, i: int) -> Node:
        """The original node key behind global id ``i``."""
        home = bisect_right(self._offsets, i) - 1
        return self._shards[home].node_of(i - self._offsets[home])

    @cached_property
    def node_table(self) -> List[Node]:
        """The global id -> node key decode table (shared, do not
        mutate); shard-major, so ids are dense across shards."""
        table: List[Node] = []
        for shard, own in zip(self._shards, self._own_counts):
            table.extend(islice(shard.node_table, own))
        return table

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def freeze(self) -> "ShardedGraph":
        """Sharded snapshots are already frozen; return ``self``."""
        return self

    @property
    def version(self) -> int:
        """Mutation-counter alias (see ``CompactGraph.version``): lets a
        reloaded sharded snapshot stand in for a live graph."""
        return self.snapshot_version

    # ------------------------------------------------------------------
    # DataGraph-compatible read API (original node keys)
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._home

    def __len__(self) -> int:
        return self._num_nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self.node_table)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def edge_cut(self) -> int:
        """Number of cross-shard edges."""
        return self._edge_cut

    @property
    def size(self) -> int:
        """``|G|`` in the paper: total number of nodes and edges."""
        return self._num_nodes + self._num_edges

    def nodes(self) -> Iterator[Node]:
        return iter(self.node_table)

    def edges(self) -> Iterator[Edge]:
        for i, snapshot in enumerate(self._shards):
            for local_id in range(self._own_counts[i]):
                source = snapshot.node_of(local_id)
                for j in snapshot.out_ids(local_id):
                    yield (source, snapshot.node_of(j))

    def has_edge(self, source: Node, target: Node) -> bool:
        home = self._home.get(source)
        if home is None:
            return False
        return self._shards[home].has_edge(source, target)

    def successors(self, node: Node) -> FrozenSet[Node]:
        # The home shard stores the full out-adjacency (ghost targets
        # keep their original keys), so this is one delegated lookup.
        return self._shards[self._home[node]].successors(node)

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        # In-adjacency is split: internal predecessors live in the home
        # shard, cross-shard ones in the shards ghosting the node (each
        # holds the in-edges its own nodes contribute).
        found = self._shards[self._home[node]].predecessors(node)
        for holder in self._ghost_shards.get(node, ()):
            found = found | self._shards[holder].predecessors(node)
        return found

    def out_degree(self, node: Node) -> int:
        return self._shards[self._home[node]].out_degree(node)

    def in_degree(self, node: Node) -> int:
        return len(self.predecessors(node))

    def labels(self, node: Node) -> FrozenSet[str]:
        return self._shards[self._home[node]].labels(node)

    def attrs(self, node: Node) -> Dict[str, Any]:
        return self._shards[self._home[node]].attrs(node)

    def nodes_with_label(self, label: str) -> Iterator[Node]:
        """Yield all nodes carrying ``label``: each shard's label bucket
        cut at its own count (ghost copies would double-count)."""
        for shard, own in zip(self._shards, self._own_counts):
            ids = shard.label_ids(label)
            names = shard.node_table
            for local_id in islice(ids, bisect_left(ids, own)):
                yield names[local_id]

    @cached_property
    def _label_stats(self) -> Dict[str, int]:
        stats: Dict[str, int] = {}
        for shard, own in zip(self._shards, self._own_counts):
            for label in shard.label_index_stats():
                count = bisect_left(shard.label_ids(label), own)
                if count:
                    stats[label] = stats.get(label, 0) + count
        return stats

    def label_index_stats(self) -> Dict[str, int]:
        """``{label: bucket size}`` over owned nodes."""
        return self._label_stats

    def evaluate_ids(self, pattern, bounded: bool, distances: bool):
        """The hook :func:`repro.simulation.simulation.evaluate` finds:
        ``match`` / ``bounded_match`` / ``materialize`` on a sharded
        graph run the partial-evaluation engines, in composite ids."""
        from repro.shard import psim

        if bounded:
            return psim.sharded_bounded_match_with_ids(pattern, self, distances)
        return psim.sharded_match_with_ids(pattern, self)

    # ------------------------------------------------------------------
    # Traversal helpers (same contract as DataGraph)
    # ------------------------------------------------------------------
    def descendants_within_ids(self, global_id: int, bound: int) -> Dict[int, int]:
        """``{composite global id: distance}`` for nonempty paths of
        length in ``[1, bound]`` from global id ``global_id``.

        Per-shard bounded BFS with **ghost-distance stitching**: each
        level expands over the CSR rows of the shard that *owns* the
        frontier node (the owner holds its complete out-adjacency), and
        reached ids translate through the per-shard global-id rows, so
        a path crossing a shard boundary continues in the target's home
        shard at the correct distance.  Ghost copies are never expanded
        (they carry no out-edges); their global ids already point at
        the owner's coordinates.
        """
        if bound < 1:
            return {}
        offsets = self._offsets
        shards = self._shards
        rows = self._global_rows
        home = bisect_right(offsets, global_id) - 1
        dist: Dict[int, int] = {}
        # Expansion frontier as (home shard, local id) pairs -- always
        # owner coordinates, so out_ids() sees the full out-adjacency.
        frontier: List[Tuple[int, int]] = [(home, global_id - offsets[home])]
        depth = 1
        while frontier:
            reached: set = set()
            for shard, local in frontier:
                row = rows[shard]
                for j in shards[shard].out_ids(local):
                    reached.add(row[j])
            reached.difference_update(dist)
            for g in reached:
                dist[g] = depth
            if depth >= bound:
                break
            frontier = [
                (s, g - offsets[s])
                for g in reached
                for s in (bisect_right(offsets, g) - 1,)
            ]
            depth += 1
        return dist

    def descendants_within(self, source: Node, bound: int) -> Dict[Node, int]:
        """Map each node reachable from ``source`` by a path of length in
        ``[1, bound]`` to its shortest such distance (per-shard BFS with
        ghost-distance stitching, see :meth:`descendants_within_ids`)."""
        table = self.node_table
        return {
            table[g]: d
            for g, d in self.descendants_within_ids(
                self.id_of(source), bound
            ).items()
        }

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(shards={self.num_shards}, nodes={self.num_nodes}, "
            f"edges={self._num_edges}, cut={self._edge_cut}, "
            f"snapshot={self.snapshot_version})"
        )


def _attach_sharded(shards, own_counts, boundary, meta) -> ShardedGraph:
    """Unpickle hook (see :meth:`ShardedGraph.__reduce__`)."""
    return ShardedGraph.attach(shards, own_counts, boundary, **meta)
