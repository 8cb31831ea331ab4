"""The sharded graph backend: per-shard snapshots + cross-shard tables.

A :class:`ShardedGraph` is what a sharded snapshot directory loads as
(:func:`repro.graph.ingest.ingest_snapshot` writes one, hash-placing
every node; :meth:`repro.graph.snapshot.SnapshotStore.load` attaches
it).  Each shard holds a frozen
:class:`~repro.graph.compact.CompactGraph` of

* its own nodes (labels, attributes, and their **complete**
  out-adjacency), and
* *ghost* copies of the foreign nodes its out-edges reach -- label and
  attribute data only, no out-edges of their own.

Because every node's full out-adjacency lives in exactly one shard, a
shard-local simulation fixpoint is exact up to the match status of its
ghosts; :mod:`repro.shard.psim` exploits this for partial-evaluation
matching, which view materialization
(:func:`repro.views.view.materialize`) runs too.

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
(:func:`boundary_stores` computes them at ingest).  A snapshot
directory persists exactly these stores, so loading a sharded graph
attaches them instead of recomputing anything, and every *name-keyed*
table (home map, ghost maps, decode table) is derived from the shards'
node tables on first name-based access -- which an id-space evaluation
(:mod:`repro.shard.psim`) never makes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.graph.compact import CompactGraph, _Table
from repro.graph.flatbuf import FlatStore

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


class ShardedGraph:
    """An immutable, hash-placed sharded snapshot, attached from the
    per-shard snapshots and boundary stores a snapshot directory holds
    (:meth:`repro.graph.snapshot.SnapshotStore.load`)."""

    def __init__(
        self,
        shards: Sequence[CompactGraph],
        own_counts: Sequence[int],
        boundary: Sequence[FlatStore],
        *,
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
        self._boundary: Tuple[FlatStore, ...] = tuple(boundary)
        self._num_edges = num_edges
        self._edge_cut = edge_cut
        self.snapshot_version = version
        self.snapshot_token = token
        self.extends_token = extends_token
        # The global id -> node key decode table (shared, do not mutate),
        # built on first read: a view attaches to it for free.
        self.node_table = _Table(self._global_table)

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
    def _ghost_shards(self) -> Dict[Node, Tuple[int, ...]]:
        """``{ghosted node: the shards holding a ghost copy of it}``."""
        holders: Dict[Node, Tuple[int, ...]] = {}
        for index, (shard, own) in enumerate(zip(self._shards, self._own_counts)):
            for node in islice(shard.node_table, own, None):
                holders[node] = holders.get(node, ()) + (index,)
        return holders

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

    def _global_table(self) -> List[Node]:
        # Shard-major, so ids are dense across shards.
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

