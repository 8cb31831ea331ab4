"""Bounded simulation: the ``BMatch`` baseline (Section VI, [16]).

``G`` matches a bounded pattern ``Qb`` via bounded simulation iff there
is a relation ``S`` such that every pattern node has a match and, for
``(u, v) in S`` and each pattern edge ``e = (u, u')`` with bound
``fe(e)``, some node ``v'`` with ``(u', v') in S`` is reachable from
``v`` by a nonempty path of length <= ``fe(e)`` (any length for ``*``).

The refinement below alternates per-edge *reverse bounded BFS* pruning
(``sim(u)`` keeps only nodes that can reach the current ``sim(u')``
within the bound) until a fixpoint, which is the standard cubic-time
scheme of [16].  Match sets ``Se`` -- node pairs together with their
actual distances -- are then built by forward bounded BFS from the
surviving matches; distances are also what the view machinery stores in
its index ``I(V)``.

Like :func:`repro.simulation.simulation.match`, the entry points are
backend-generic: candidates seed from whatever label index the target
provides, and targets with an id space go through
:func:`repro.simulation.simulation.evaluate` -- frozen
:class:`~repro.graph.compact.CompactGraph` targets to the id-space
engines behind :func:`repro.simulation.compact_bounded.compact_bounded_match_with_ids`
(the array kernel, or the set engine on small snapshots and without
NumPy), :class:`~repro.shard.sharded.ShardedGraph` targets through
their own ``evaluate_ids`` (shard-local BFS stitched at ghost nodes).
Results are equal on every backend.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graph.digraph import DataGraph
from repro.graph.pattern import ANY, BoundedPattern
from repro.simulation.simulation import evaluate
from repro.simulation.distance import (
    BoundedDistanceCache,
    reverse_reachable_within,
)
from repro.simulation.result import MatchResult
from repro.simulation.seeding import condition_candidates

PNode = Hashable
Node = Hashable
NodePair = Tuple[Node, Node]


def maximum_bounded_simulation(
    pattern: BoundedPattern, graph: DataGraph
) -> Optional[Dict[PNode, Set[Node]]]:
    """The maximum bounded simulation relation, or ``None`` if no match."""
    sim = condition_candidates(pattern, graph)
    if sim is None:
        return None

    edges = pattern.edges()
    changed = True
    while changed:
        changed = False
        for edge in edges:
            u, u1 = edge
            bound = pattern.bound(edge)
            allowed = reverse_reachable_within(graph, sim[u1], bound)
            if not sim[u] <= allowed:
                sim[u] &= allowed
                if not sim[u]:
                    return None
                changed = True
    return sim


def bounded_edge_matches(
    pattern: BoundedPattern,
    graph: DataGraph,
    sim: Dict[PNode, Set[Node]],
    with_distances: bool = False,
    cache: Optional[BoundedDistanceCache] = None,
):
    """Build the per-edge match sets from a (maximum) relation ``sim``.

    With ``with_distances=True`` returns ``{e: {(v, v'): dist}}``, which
    is what view materialization needs for the index ``I(V)``; otherwise
    returns ``{e: set of (v, v')}``.
    """
    cache = cache or BoundedDistanceCache(graph)
    if with_distances:
        with_d: Dict[Tuple[PNode, PNode], Dict[NodePair, int]] = {}
    else:
        plain: Dict[Tuple[PNode, PNode], Set[NodePair]] = {}
    for edge in pattern.edges():
        u, u1 = edge
        bound = pattern.bound(edge)
        targets = sim[u1]
        if with_distances:
            pairs_d: Dict[NodePair, int] = {}
        else:
            pairs: Set[NodePair] = set()
        for v in sim[u]:
            if bound is ANY:
                # Distances recorded for * edges are shortest-path hops,
                # found by widening BFS until the target set is covered;
                # cheaper: full reachability then BFS only if distances
                # are requested.
                if with_distances:
                    reach = cache.reachable(v) & targets
                    if reach:
                        dist = cache.descendants(v, graph.num_nodes)
                        for w in reach:
                            pairs_d[(v, w)] = dist[w]
                else:
                    for w in cache.reachable(v) & targets:
                        pairs.add((v, w))
            else:
                dist = cache.descendants(v, bound)
                for w, d in dist.items():
                    if w in targets:
                        if with_distances:
                            pairs_d[(v, w)] = d
                        else:
                            pairs.add((v, w))
        if with_distances:
            with_d[edge] = pairs_d
        else:
            plain[edge] = pairs
    return with_d if with_distances else plain


def bounded_match(pattern: BoundedPattern, graph: DataGraph) -> MatchResult:
    """Evaluate ``Qb`` on ``G`` via bounded simulation (the paper's BMatch).

    ``graph`` may be a mutable :class:`DataGraph`, a frozen
    :class:`CompactGraph`, or a
    :class:`~repro.shard.sharded.ShardedGraph`; snapshots take the
    integer-id fast path, sharded graphs the ghost-stitched BFS path,
    and all produce an equal result.
    """
    evaluated = evaluate(pattern, graph, bounded=True)
    if evaluated is not None:
        return evaluated[0]
    sim = maximum_bounded_simulation(pattern, graph)
    if sim is None:
        return MatchResult.empty()
    edge_matches = bounded_edge_matches(pattern, graph, sim)
    return MatchResult(sim, edge_matches)


def bounded_match_with_distances(
    pattern: BoundedPattern, graph: DataGraph
) -> Tuple[MatchResult, Dict[Tuple[PNode, PNode], Dict[NodePair, int]]]:
    """Like :func:`bounded_match` but also return per-pair distances.

    Used by view materialization: the second component feeds the
    distance index ``I(V)`` of Section VI-A.  Id-space backends answer
    the same question through :func:`repro.simulation.simulation.evaluate`;
    this entry point runs the generic engine over whatever backend it
    is handed (all backends expose the required read API).
    """
    sim = maximum_bounded_simulation(pattern, graph)
    if sim is None:
        return MatchResult.empty(), {}
    distances = bounded_edge_matches(pattern, graph, sim, with_distances=True)
    edge_matches = {edge: set(pairs) for edge, pairs in distances.items()}
    return MatchResult(sim, edge_matches), distances


def bounded_simulates(pattern: BoundedPattern, graph: DataGraph) -> bool:
    """``Qb E_Bsim G``: does ``G`` match ``Qb`` via bounded simulation?"""
    return bool(bounded_match(pattern, graph))
