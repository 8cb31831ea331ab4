"""Direct Match as array algebra: mask -> rows -> sweep.

The array form of the id-space Match kernel, for the one case that is
pure array work: a *whole-graph* snapshot (no ghosts, no kept state, no
withdrawals -- those stay with
:func:`repro.simulation.compact_engine.witness_fixpoint`).  Over a
dense id space the greatest simulation fixpoint needs no sets and no
witness counters:

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

The surviving rows *are* the id outcome; node keys decode once, at the
end, through the same packager the set kernel uses.

This is the only module under ``src/`` that imports NumPy, and it does
so inside :func:`array_match`, on first use: a process that never runs a
whole-graph match above :data:`ARRAY_MIN_EDGES` (a sharded boot, the
server's hit path) never pays the import, and where NumPy is missing the
set kernel answers instead.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, Hashable, Optional, Tuple

from repro.graph.compact import CompactGraph
from repro.simulation.compact_engine import (
    Outcome,
    decode_outcome,
    meter_refinement,
    no_match,
    seed_candidates,
)

PNode = Hashable
PEdge = Tuple[PNode, PNode]

#: Snapshots with fewer edges run the set kernel: below this the fixed
#: cost of allocating masks and gathering columns outweighs the set
#: work it replaces.  Measured by ``benchmarks/bench_kernel_cut.py``
#: (table in CHANGES.md, PR 21); no ``perf/`` workload runs below it.
ARRAY_MIN_EDGES = 2_000


def array_match(pattern, graph: CompactGraph) -> Optional[Outcome]:
    """The outcome of ``pattern`` on the whole-graph snapshot ``graph``,
    or ``None`` when this kernel declines it (the caller runs the set
    kernel): fewer than :data:`ARRAY_MIN_EDGES` edges, or no NumPy."""
    if graph.num_edges < ARRAY_MIN_EDGES:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    return _mask_rows_sweep(np, pattern, graph)


def _scatter(np, mask, ids, start: int, stop: int) -> None:
    """``mask[ids[start:stop]] = True`` for the id sequences the
    candidate index hands out."""
    if isinstance(ids, range):
        span = ids[start:stop]  # every node: a slice of the mask itself
        mask[span.start : span.stop : span.step] = True
    elif isinstance(ids, array):
        mask[np.frombuffer(ids, dtype=np.int64)[start:stop]] = True
    else:
        mask[np.fromiter(ids[start:stop], np.intp, stop - start)] = True


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
                _scatter(np, part, ids, start, stop)
        if mask is None:
            mask = part
        else:
            mask &= part
    return mask


def _mask_rows_sweep(np, pattern, graph: CompactGraph) -> Outcome:
    n = graph.num_nodes

    def population(mask) -> int:  # a Python int: it reaches spans and counters
        return int(np.count_nonzero(mask))

    alive = seed_candidates(pattern, partial(_seed_mask, np, graph), population)
    counts = {u: population(mask) for u, mask in alive.items()}
    if not all(counts.values()):
        return no_match()

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
        left = population(has)
        if left < counts[u]:
            removals += counts[u] - left
            alive[u] = has
            counts[u] = left
            dirty[u] = None
        return left > 0

    src, tgt = (np.frombuffer(col, dtype=np.int32) for col in graph.edge_columns())
    rows: Dict[PEdge, tuple] = {}
    matched = True
    for edge in pattern.edges():
        u, u1 = edge
        idx = np.flatnonzero(alive[u][src] & alive[u1][tgt])
        sources = src[idx]
        rows[edge] = sources, tgt[idx]
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
            keep = alive[u][sources] & alive[u1][targets]
            if keep.all():
                continue
            sources = sources[keep]
            rows[edge] = sources, targets[keep]
            if not settle(u, sources):
                matched = False
                break
    meter_refinement(batches, removals)
    if not matched:
        return no_match()

    # A pattern edge is revisited when its *target* shrinks; rows whose
    # source died to another edge of the same pattern node go here.
    id_rows = {}
    for edge, (sources, targets) in rows.items():
        keep = alive[edge[0]][sources]
        if not keep.all():
            sources, targets = sources[keep], targets[keep]
        id_rows[edge] = _q_column(np, sources), _q_column(np, targets)
    sim = {u: np.flatnonzero(mask).tolist() for u, mask in alive.items()}
    return decode_outcome(graph, sim, id_rows)


def _q_column(np, ids) -> array:
    column = array("q")
    column.frombytes(ids.astype(np.int64).tobytes())
    return column
