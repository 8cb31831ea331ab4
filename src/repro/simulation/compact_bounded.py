"""Integer-id bounded simulation over sets, for :class:`CompactGraph`
snapshots, and the edge worklist every id-space BMatch runs.

:func:`compact_bounded_match_with_ids` is what
:func:`repro.simulation.bounded.bounded_match` reaches for a frozen
snapshot.  It offers the match to the array kernel
(:func:`repro.simulation.array_engine.array_bounded_match`) first; the
set engine in this module is the *small-snapshot / no-NumPy path*: below
``ARRAY_MIN_EDGES`` edges, or where NumPy does not import.  Both run
:func:`bounded_worklist` -- the same per-edge refinement as the generic
BMatch engine, in the snapshot's dense id space -- and differ in what
holds the candidates.  Here:

* candidate sets are sets of ints seeded from the snapshot's candidate index
  (:func:`~repro.simulation.compact_engine.seed_candidates`);
* the refinement's "which nodes can reach the current match set of u'
  within k hops?" question is answered by the snapshot's multi-source
  reverse bounded BFS (:meth:`CompactGraph.reverse_within_ids`), whose
  frontiers expand with C-level ``set.update`` over CSR rows;
* match-set construction and the distance index ``I(V)`` come from the
  id-space forward BFS (:meth:`CompactGraph.descendants_within_ids`)
  behind a memoizing :class:`CompactBoundedDistanceCache`.

Results decode back to original node keys at the very end, so a
:class:`MatchResult` from either kernel is equal (``==``) to one computed
on the mutable dict backend; the id-space edge matches and the id-space
distance index additionally feed the
:class:`~repro.views.flatpack.FlatExtension` payload that bounded view
materialization stores for the BMatchJoin fast path.
"""

from __future__ import annotations

import logging
from array import array
from collections import deque
from itertools import repeat
from typing import Callable, Dict, Hashable, Optional, Set, Tuple

from repro.graph.compact import CompactGraph
from repro.graph.pattern import ANY
from repro.obs.metrics import get_registry
from repro.simulation.compact_engine import (
    IdRows,
    Outcome,
    decode_outcome,
    decode_phase,
    no_match,
    run_match,
    seed_candidates,
    sweep_phase,
)

log = logging.getLogger(__name__)

PNode = Hashable
PEdge = Tuple[PNode, PNode]

#: Id-space distance index ``I(V)``: ``{(source id, target id): dist}``,
#: minimized over all view edges exactly like the node-key index.
IdDistances = Dict[Tuple[int, int], int]


class CompactBoundedDistanceCache:
    """Memoizing id-space forward bounded-BFS oracle over a snapshot.

    The id-space twin of
    :class:`~repro.simulation.distance.BoundedDistanceCache`: BMatch
    repeatedly asks for the descendants of the same id at the same (or
    smaller) depth while building match sets, so caching by id with
    depth-widening keeps this linear in practice.
    """

    __slots__ = ("_graph", "_cache", "_full")

    def __init__(self, graph: CompactGraph) -> None:
        self._graph = graph
        self._cache: Dict[int, Tuple[int, Dict[int, int]]] = {}
        self._full: Dict[int, Set[int]] = {}

    def descendants(self, source: int, bound: int) -> Dict[int, int]:
        """``{id: distance}`` for nonempty paths of length <= bound."""
        cached = self._cache.get(source)
        if cached is not None and cached[0] >= bound:
            depth, dist = cached
            if depth == bound:
                return dist
            return {i: d for i, d in dist.items() if d <= bound}
        dist = self._graph.descendants_within_ids(source, bound)
        self._cache[source] = (bound, dist)
        return dist

    def reachable(self, source: int) -> Set[int]:
        """All ids reachable by a nonempty path (memoized)."""
        if source not in self._full:
            self._full[source] = self._graph.reachable_ids(source)
        return self._full[source]


def bounded_worklist(pattern, cone: Callable, cut: Callable) -> bool:
    """The BMatch greatest fixpoint as *chaotic iteration over an edge
    worklist*, whatever the candidates are held in: false on a failed
    match.

    The same fixpoint as the generic engine
    (:func:`repro.simulation.bounded.maximum_bounded_simulation`) --
    each step intersects ``sim(u)`` with the reverse cone of ``sim(u')``
    -- but an edge is (re-)evaluated only after its target set shrank,
    instead of a full edge sweep per outer round.  The refinement
    operator is monotone and the greatest fixpoint unique, so evaluation
    order cannot change the result (property-tested against the dict
    backend).

    The caller owns the candidates (id sets here, boolean masks in
    :mod:`repro.simulation.array_engine`) and hands in the two
    operations on them: ``cone(u1, bound)`` -- everything with a
    nonempty path of at most ``bound`` edges into the current
    ``sim(u1)`` -- and ``cut(u, allowed)``, which intersects ``sim(u)``
    with a cone and returns how many candidates are left, ``None`` when
    it removed nothing.  ``repro_bounded_edge_evals_total`` counts the
    edges evaluated against a cone and ``repro_bounded_shrinks_total``
    the cuts that removed something: one registry write per run, the
    same numbers on either kernel.
    """
    queue = deque(pattern.edges())
    queued = set(queue)
    # Reverse cones keyed by (target node, bound), valid while the
    # target set has not shrunk since computation: parallel edges into
    # the same pattern node with equal bounds share one BFS.
    versions: Dict[PNode, int] = dict.fromkeys(pattern.nodes(), 0)
    cones: Dict[Tuple[PNode, object], Tuple[int, object]] = {}
    evaluations = 0
    shrinks = 0
    matched = True
    while queue:
        edge = queue.popleft()
        queued.discard(edge)
        evaluations += 1
        u, u1 = edge
        key = (u1, pattern.bound(edge))
        cached = cones.get(key)
        if cached is None or cached[0] != versions[u1]:
            cached = cones[key] = versions[u1], cone(*key)
        left = cut(u, cached[1])
        if left is None:
            continue
        shrinks += 1
        if not left:
            matched = False
            break
        versions[u] += 1
        # sim(u) shrank: every edge *targeting* u sees a smaller
        # reverse cone and must be re-checked.
        for stale in pattern.in_edges(u):
            if stale not in queued:
                queued.add(stale)
                queue.append(stale)
    reg = get_registry()
    reg.counter("repro_bounded_edge_evals_total").inc(evaluations)
    reg.counter("repro_bounded_shrinks_total").inc(shrinks)
    return matched


def compact_maximum_bounded_simulation(
    pattern, graph: CompactGraph
) -> Optional[Dict[PNode, Set[int]]]:
    """The maximum bounded simulation over a snapshot, in id space:
    :func:`bounded_worklist` over id sets, every BFS frontier expanding
    with C-level set operations over CSR rows.  Returns ``{u: ids}``
    with every set nonempty, or ``None`` on no match.
    """
    sim = seed_candidates(pattern, graph.candidate_ids)
    if not all(sim.values()):
        return None

    def cone(u1: PNode, bound) -> Set[int]:
        if bound is ANY:
            return graph.reverse_reachable_ids(sim[u1])
        return graph.reverse_within_ids(sim[u1], bound)

    def cut(u: PNode, allowed: Set[int]) -> Optional[int]:
        if sim[u] <= allowed:
            return None
        sim[u] &= allowed
        return len(sim[u])

    sizes = lambda: map(len, sim.values())  # noqa: E731
    return sim if sweep_phase(bounded_worklist, sizes, pattern, cone, cut) else None


def compact_bounded_edge_matches(
    pattern,
    graph: CompactGraph,
    sim: Dict[PNode, Set[int]],
    with_distances: bool = False,
    cache: Optional[CompactBoundedDistanceCache] = None,
) -> Tuple[IdRows, Optional[IdDistances]]:
    """Per-edge match sets in id space, as ``(src, tgt)`` rows.

    With ``with_distances=True`` the second component is the id-space
    distance index ``I(V)`` -- each materialized pair mapped to its
    actual shortest-path distance, minimized across view edges (the
    exact semantics of the node-key index, so the BMatchJoin fast path
    filters identically to the dict path).  ``None`` otherwise.
    """
    cache = cache or CompactBoundedDistanceCache(graph)
    matches: IdRows = {}
    index: Optional[IdDistances] = {} if with_distances else None
    for edge in pattern.edges():
        u, u1 = edge
        bound = pattern.bound(edge)
        targets = sim[u1]
        # Distances for * edges are shortest-path hops: the full-depth
        # BFS both enumerates the reachable set and carries them, so
        # one traversal does; without an index plain reachability will.
        reach_only = bound is ANY and index is None
        depth = graph.num_nodes if bound is ANY else bound
        src = array("q")
        tgt = array("q")
        for v in sim[u]:
            if reach_only:
                witnesses = cache.reachable(v) & targets
            else:
                dist = cache.descendants(v, depth)
                witnesses = targets.intersection(dist)
            if not witnesses:
                continue
            src.extend(repeat(v, len(witnesses)))
            tgt.extend(witnesses)
            if index is not None:
                for w in witnesses:
                    # I(V) keeps the smaller distance across view edges.
                    key = (v, w)
                    d = dist[w]
                    previous = index.get(key)
                    if previous is None or d < previous:
                        index[key] = d
        matches[edge] = (src, tgt)
    return matches, index


def _set_bounded_match(pattern, graph: CompactGraph, with_distances: bool) -> Outcome:
    sim = compact_maximum_bounded_simulation(pattern, graph)
    if sim is None:
        return no_match()
    id_rows, index = compact_bounded_edge_matches(
        pattern, graph, sim, with_distances=with_distances
    )
    return decode_phase(decode_outcome, graph, sim, id_rows, id_distances=index)


def compact_bounded_match_with_ids(
    pattern, graph: CompactGraph, with_distances: bool = False
) -> Outcome:
    """Evaluate ``Qb`` on a whole-graph snapshot: the array kernel when
    it takes the snapshot (its call: edge count and NumPy), else this
    module's set engine.

    The id components feed the extension payload bounded view
    materialization stores; the distance index only with
    ``with_distances=True``.
    """
    from repro.simulation.array_engine import array_bounded_match

    return run_match(
        array_bounded_match, _set_bounded_match,
        pattern, graph, with_distances,
        bounded=True,
    )
