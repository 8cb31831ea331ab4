"""Direct Match and BMatch as array algebra.

The array form of the id-space kernels, for the one case that is pure
array work: a *whole-graph* snapshot (no ghosts, no kept state, no
withdrawals -- those stay with
:func:`repro.simulation.compact_engine.witness_fixpoint` and the shard
layer's ghost-stitched BFS).  Over a dense id space the greatest
simulation fixpoint of a plain pattern needs no sets and no witness
counters (:func:`array_match`: mask -> rows -> sweep):

1. **mask** -- one boolean ``alive[u]`` per pattern node, scattered
   from the snapshot's candidate index (label bucket and attribute
   column slices, conjunctions as ``&``);
2. **rows** -- per pattern edge ``(u, u')`` one pass over the
   snapshot's edge columns keeps the edges with ``alive[u][src] &
   alive[u'][tgt]``: the extension of the single-edge view of that
   pattern edge;
3. **sweep** -- a worklist of pattern nodes whose mask shrank: each
   in-edge's rows are cut to the live ones, a source left without a row
   dies, and a pattern node that shrank is queued in turn; the first
   empty mask is a failed match.

The surviving rows *are* the id outcome and stay arrays to the end, in
the answer itself: node keys are gathered from a per-snapshot object
column when a set is first read (:class:`_KeyColumn`).

A bounded pattern (:func:`array_bounded_match`: cones -> pairs) starts
from the same masks and runs the edge worklist of
:func:`repro.simulation.compact_bounded.bounded_worklist` over them:

1. **cones** -- "which nodes reach ``alive[u']`` by a nonempty path of
   at most ``k`` edges?" is ``k`` rounds of ``nxt[src[frontier[tgt]]] =
   True`` over the edge columns (to exhaustion for ``*``), and the cut
   is ``alive[u] &= cone``;
2. **pairs** -- match sets and the distance index ``I(V)`` come from
   expanding ``(origin, node)`` pair columns level by level through the
   CSR offsets of the edge columns, from ``alive[u]``: the level a pair
   first appears at is its shortest distance, and each pattern edge
   ``(u, u')`` keeps the pairs with ``alive[u'][node]``.

This is the only module under ``src/`` that imports NumPy, and it does
so inside :func:`_numpy_for`, on first use: a process that never runs a
whole-graph match above :data:`ARRAY_MIN_EDGES` (a sharded boot, the
server's hit path) never pays the import, and where NumPy is missing the
set kernels answer instead.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, Hashable, Optional, Tuple

from repro.graph.compact import CompactGraph
from repro.graph.pattern import ANY
from repro.simulation.compact_bounded import bounded_worklist
from repro.simulation.compact_engine import (
    Outcome,
    decode_phase,
    meter_refinement,
    no_match,
    seed_candidates,
    sweep_phase,
)
from repro.simulation.result import IdAnswer

PNode = Hashable
PEdge = Tuple[PNode, PNode]

#: Snapshots with fewer edges run the set kernel: below this the fixed
#: cost of allocating masks and gathering columns outweighs the set
#: work it replaces.  Measured by ``benchmarks/bench_kernel_cut.py``
#: (table in CHANGES.md, PR 21); no ``perf/`` workload runs below it.
ARRAY_MIN_EDGES = 2_000

#: Rows one pair expansion may hold at a time (the pairs already seen
#: plus the next level before it is deduplicated).  A ``*`` edge
#: enumerates every reachable pair, so the origins are split until a
#: piece fits -- a single origin always does, with at most ``|V|`` pairs
#: seen and ``|E|`` rows expanded -- and peak memory stays a few int64
#: columns of this length whatever the answer's size.
PAIR_ROW_BUDGET = 1 << 18


def _numpy_for(graph: CompactGraph):
    """NumPy when the array kernels take ``graph``, else ``None`` (the
    caller runs the set kernel): fewer than :data:`ARRAY_MIN_EDGES`
    edges, or no NumPy."""
    if graph.num_edges < ARRAY_MIN_EDGES:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    return np


def array_match(pattern, graph: CompactGraph) -> Optional[Outcome]:
    """The outcome of ``pattern`` on the whole-graph snapshot ``graph``,
    or ``None`` when this kernel declines it."""
    np = _numpy_for(graph)
    return None if np is None else _mask_rows_sweep(np, pattern, graph)


def array_bounded_match(
    pattern, graph: CompactGraph, with_distances: bool = False
) -> Optional[Outcome]:
    """The outcome of the bounded ``pattern`` on the whole-graph
    snapshot ``graph`` (with the id-space distance index when
    ``with_distances``), or ``None`` when this kernel declines it."""
    np = _numpy_for(graph)
    return None if np is None else _cones_pairs(np, pattern, graph, with_distances)


def _edge_indices(np, graph: CompactGraph):
    """``graph.edge_columns()`` as index-width arrays, copied per call:
    a gather through int32 indices converts them each time, at 3x its cost."""
    columns = graph.edge_columns()
    return tuple(np.frombuffer(c, dtype=np.int32).astype(np.intp) for c in columns)


def _scatter(np, graph: CompactGraph, mask, ids, start: int, stop: int) -> None:
    """``mask[ids[start:stop]] = True`` for the id sequences the
    candidate index hands out.  A label bucket (a tuple) is converted
    once per snapshot: found by identity, in an entry that holds it."""
    if isinstance(ids, range):
        span = ids[start:stop]  # every node: a slice of the mask itself
        mask[span.start : span.stop : span.step] = True
    elif isinstance(ids, array):  # an attribute column, viewed in place
        mask[np.frombuffer(ids, dtype=np.int64)[start:stop]] = True
    else:
        buckets = graph.array_cache.setdefault("buckets", {})
        if id(ids) not in buckets:
            buckets[id(ids)] = ids, np.array(ids, dtype=np.int64)
        mask[buckets[id(ids)][1][start:stop]] = True


def _seed_mask(np, graph: CompactGraph, condition):
    """``alive[i]`` iff ``condition`` holds at node id ``i``.  A
    condition the index does not answer exactly goes through
    ``candidate_ids`` (which owns the per-node fallback scan and its
    metering) and is scattered from the resulting set."""
    n = graph.num_nodes
    parts, exact = graph.index_parts(condition)
    if not exact:
        found = graph.candidate_ids(condition)
        mask = np.zeros(n, dtype=bool)
        mask[np.fromiter(found, np.intp, len(found))] = True
        return mask
    mask = None
    for ids, ranges in parts:
        part = np.zeros(n, dtype=bool)
        for start, stop in ranges:
            if start < stop:
                _scatter(np, graph, part, ids, start, stop)
        if mask is None:
            mask = part
        else:
            mask &= part
    return mask


def _population(np, mask) -> int:
    """A Python int: it reaches spans and counters."""
    return int(np.count_nonzero(mask))


def _seed_masks(np, pattern, graph: CompactGraph):
    """``(alive, counts)``: every pattern node's candidate mask and its
    population."""
    population = partial(_population, np)
    alive = seed_candidates(pattern, partial(_seed_mask, np, graph), population)
    return alive, {u: population(mask) for u, mask in alive.items()}


def _mask_rows_sweep(np, pattern, graph: CompactGraph) -> Outcome:
    alive, counts = _seed_masks(np, pattern, graph)
    if not all(counts.values()):
        return no_match()
    rows: Dict[PEdge, tuple] = {}
    if not sweep_phase(_sweep, counts.values, np, pattern, graph, alive, counts, rows):
        return no_match()
    return decode_phase(_package, np, graph, alive, rows)


def _sweep(np, pattern, graph: CompactGraph, alive, counts, rows) -> bool:
    """The rows step and the sweep: fills ``rows[edge] = (sources, targets)``
    and cuts ``alive`` / ``counts`` to the fixpoint; false on a failed match."""
    n = graph.num_nodes
    # dirty: pattern nodes whose mask shrank since their in-edges' rows
    # were last cut (insertion-ordered, so runs repeat exactly).
    dirty: Dict[PNode, None] = {}
    removals = 0

    def settle(u: PNode, sources) -> bool:
        """Cut ``alive[u]`` to the ids with a row in ``sources``; false
        when that empties it."""
        nonlocal removals
        has = np.zeros(n, dtype=bool)
        has[sources] = True
        has &= alive[u]
        left = _population(np, has)
        if left < counts[u]:
            removals += counts[u] - left
            alive[u] = has
            counts[u] = left
            dirty[u] = None
        return left > 0

    src, tgt = _edge_indices(np, graph)
    matched = True
    for edge in pattern.edges():
        u, u1 = edge
        idx = np.flatnonzero(alive[u].take(src) & alive[u1].take(tgt))
        sources = src.take(idx)
        rows[edge] = sources, tgt.take(idx)
        if not settle(u, sources):
            matched = False
            break

    batches = 0
    while matched and dirty:
        u1 = dirty.popitem()[0]
        batches += 1
        for edge in pattern.in_edges(u1):
            u = edge[0]
            sources, targets = rows[edge]
            keep = alive[u].take(sources) & alive[u1].take(targets)
            if keep.all():
                continue
            idx = np.flatnonzero(keep)
            sources = sources.take(idx)
            rows[edge] = sources, targets.take(idx)
            if not settle(u, sources):
                matched = False
                break
    meter_refinement(batches, removals)
    if not matched:
        return False

    # A pattern edge is revisited when its *target* shrinks; rows whose
    # source died to another edge of the same pattern node go here.
    for edge, (sources, targets) in rows.items():
        keep = alive[edge[0]].take(sources)
        if not keep.all():
            idx = np.flatnonzero(keep)
            rows[edge] = sources.take(idx), targets.take(idx)
    return True


class _KeyColumn(IdAnswer):
    """The array kernels' answer: ``ids`` and ``rows`` are the kernel's
    own arrays, and node keys come off the snapshot's key column -- one
    object per key whatever it is (a tuple stays one object) -- which a
    read fills at the ids it needs: only ids some answer read are ever
    decoded off the node table (lazy on an attached snapshot), each once."""

    __slots__ = ("np", "column")

    def __init__(self, np, column, ids, rows, table) -> None:
        super().__init__(ids, rows, table)
        self.np, self.column = np, column

    def _keys(self, ids):
        """The key column, known at least at ``ids`` (distinct ids)."""
        keys, known = self.column
        fresh = ids[~known.take(ids)]
        if len(fresh):
            keys[fresh] = self.np.frompyfunc(self.table.__getitem__, 1, 1)(fresh)
            known[fresh] = True
        return keys

    def node_set(self, u):
        ids = self.ids[u]
        return set(self._keys(ids).take(ids).tolist())

    def pair_set(self, edge):
        # Every row names live ids, so the end nodes' ids cover them.
        self._keys(self.ids[edge[0]])
        keys = self._keys(self.ids[edge[1]])
        sources, targets = self.rows[edge]
        return set(zip(keys.take(sources).tolist(), keys.take(targets).tolist()))


def _package(np, graph: CompactGraph, alive, rows, id_distances=None) -> Outcome:
    """The outcome of survivor masks and per-edge ``(sources, targets)``
    id arrays (every id they name alive): a lazy result over the arrays
    (:class:`_KeyColumn`), and each id array's buffer copied once into
    the ``array('q')`` column payloads store."""
    cache, n = graph.array_cache, graph.num_nodes
    if "keys" not in cache:
        cache["keys"] = np.empty(n, dtype=object), np.zeros(n, dtype=bool)
    ids = {u: np.flatnonzero(mask) for u, mask in alive.items()}
    answer = _KeyColumn(np, cache["keys"], ids, rows, graph.node_table)

    def column(ids) -> array:
        copy = array("q")
        copy.frombytes(np.ascontiguousarray(ids, dtype=np.int64).view(np.uint8))
        return copy

    id_rows = {edge: tuple(map(column, pair)) for edge, pair in rows.items()}
    return answer.result(), id_rows, id_distances


def _cones_pairs(np, pattern, graph: CompactGraph, with_distances: bool) -> Outcome:
    n = graph.num_nodes
    alive, counts = _seed_masks(np, pattern, graph)
    if not all(counts.values()):
        return no_match()
    src, tgt = _edge_indices(np, graph)

    def cone(u1: PNode, bound):
        """The ids with a nonempty path of at most ``bound`` edges into
        ``alive[u1]``: one pass over the edge columns per round, each
        round's frontier the ids first reached in the one before."""
        reach = np.zeros(n, dtype=bool)
        frontier = alive[u1]
        rounds = 0
        while bound is ANY or rounds < bound:
            nxt = np.zeros(n, dtype=bool)
            nxt[src.take(np.flatnonzero(frontier.take(tgt)))] = True
            nxt &= ~reach
            if not nxt.any():
                break
            reach |= nxt
            frontier = nxt
            rounds += 1
        return reach

    def cut(u: PNode, allowed) -> Optional[int]:
        kept = alive[u] & allowed
        left = _population(np, kept)
        if left == counts[u]:
            return None
        alive[u] = kept
        counts[u] = left
        return left

    if not sweep_phase(bounded_worklist, counts.values, pattern, cone, cut):
        return no_match()

    # The edge columns are in CSR order, so a node's row is a slice.
    degree = np.bincount(src, minlength=n)
    starts = np.cumsum(degree) - degree
    # One expansion per pattern node serves all its out-edges: as deep
    # as the largest of their bounds, each edge reading the levels
    # within its own and cutting them to its target's mask.
    out_edges: Dict[PNode, list] = {}
    for edge in pattern.edges():
        out_edges.setdefault(edge[0], []).append((edge, pattern.bound(edge)))
    found: Dict[PEdge, tuple] = {edge: ([], [], []) for edge in pattern.edges()}
    for u, edges in out_edges.items():
        bounds = [bound for _, bound in edges]
        depth = None if ANY in bounds else max(bounds)
        pieces = [np.flatnonzero(alive[u])]
        while pieces:
            origins = pieces.pop()
            levels = _pair_levels(np, origins, degree, starts, tgt, np.int64(n), depth)
            if levels is None:  # over the row budget: halve the origins
                half = len(origins) // 2
                pieces += [origins[half:], origins[:half]]
                continue
            for edge, bound in edges:
                sources, targets, hops = found[edge]
                live = alive[edge[1]]
                within = levels if bound is ANY else levels[:bound]
                for distance, (origin, node) in enumerate(within, start=1):
                    keep = live[node]
                    sources.append(origin[keep])
                    targets.append(node[keep])
                    hops.append(distance)

    rows = {}
    index: Optional[Dict[Tuple[int, int], int]] = None
    if with_distances:
        index = {}
        # One int object per id for all the keys below: ``tolist`` on
        # the columns would allocate two per pair, and they live as long
        # as the view does.
        ids = np.arange(n).astype(object)
    for edge, (sources, targets, hops) in found.items():
        sizes = list(map(len, sources))
        sources = np.concatenate(sources)
        targets = np.concatenate(targets)
        rows[edge] = sources, targets
        if index is not None:
            # A pair's level is its shortest distance whichever edge
            # emits it, so the minimum over edges is the value itself.
            index.update(zip(
                zip(ids.take(sources).tolist(), ids.take(targets).tolist()),
                np.repeat(hops, sizes).tolist(),
            ))
    return decode_phase(_package, np, graph, alive, rows, index)


def _pair_levels(np, origins, degree, starts, tgt, n, depth: Optional[int]):
    """Every ``(origin, node)`` with a nonempty path from one of
    ``origins`` to ``node``, by shortest distance: entry ``d - 1`` holds
    the ``(origin, node)`` columns of the pairs first reached by ``d``
    edges, up to ``depth`` (``None``: until nothing new is reached; an
    origin on a cycle reaches itself).  A pair is the key ``origin * n +
    node`` (``n`` an ``int64``, so keys are 64-bit whatever the index
    width: ids are int32, their products are not); a level is the
    successors of the one before, deduplicated, minus every key seen so
    far.  ``None`` when that would hold more than
    :data:`PAIR_ROW_BUDGET` rows at once and ``origins`` can still be
    split."""
    origin = node = origins
    seen = None
    levels = []
    while len(origin) and (depth is None or len(levels) < depth):
        widths = degree[node]
        total = int(widths.sum())
        held = total if seen is None else total + len(seen)
        if held > PAIR_ROW_BUDGET and len(origins) > 1:
            return None
        # Row ``j`` of the expansion is edge ``starts[node] + j`` for
        # each frontier pair in turn.
        ends = np.cumsum(widths)
        rows = np.arange(total) + np.repeat(starts[node] - ends + widths, widths)
        keys = np.sort(np.repeat(origin, widths) * n + tgt.take(rows))
        fresh = np.ones(total, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        if seen is None:
            seen = keys
        else:
            at = np.searchsorted(seen, keys)
            fresh = seen.take(at, mode="clip") != keys
            keys = keys[fresh]
            seen = np.insert(seen, at[fresh], keys)  # a merge: both are sorted
        origin, node = np.divmod(keys, n)
        if len(keys):
            levels.append((origin, node))
    return levels
