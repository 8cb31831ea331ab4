"""Strong simulation ([28], Section VIII extension).

Strong simulation adds *locality* to dual simulation: a data node ``v``
is a strong-simulation match of pattern node ``u`` iff the maximum dual
simulation of the pattern inside the ball ``B(v, d_Q)`` -- the subgraph
induced by nodes within undirected distance ``d_Q`` (the pattern's
diameter) of ``v`` -- contains ``(u, v)``.  Ma et al. show this captures
topology that plain/dual simulation lose while staying cubic.

The entry point :func:`strong_match` returns the union, over all
matching balls, of the dual-simulation relations, exposed through the
usual :class:`MatchResult` interface plus the list of match balls.
Each ball runs the shared dict fixpoint
(:class:`~repro.simulation.witness.WitnessCounters` with its parent
counters) on the subgraph the ball induces.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Set, Tuple

from repro.graph.digraph import DataGraph
from repro.graph.pattern import Pattern
from repro.simulation.result import MatchResult, edge_matches_from_nodes
from repro.simulation.seeding import condition_candidates
from repro.simulation.witness import WitnessCounters

PNode = Hashable
Node = Hashable


def pattern_diameter(pattern: Pattern) -> int:
    """Diameter of the pattern treated as an undirected graph.

    Disconnected patterns (not expected; the paper assumes connected
    ones) fall back to ``num_nodes``.
    """
    nodes = list(pattern.nodes())
    best = 0
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in pattern.successors(node) | pattern.predecessors(node):
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        if len(dist) < len(nodes):
            return max(len(nodes), 1)
        best = max(best, max(dist.values()))
    return max(best, 1)


def ball(graph: DataGraph, center: Node, radius: int) -> Set[Node]:
    """Nodes within undirected distance ``radius`` of ``center``."""
    seen = {center}
    queue = deque([(center, 0)])
    while queue:
        node, depth = queue.popleft()
        if depth == radius:
            continue
        for neighbor in graph.successors(node) | graph.predecessors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, depth + 1))
    return seen


def strong_match(
    pattern: Pattern, graph: DataGraph
) -> Tuple[MatchResult, List[Tuple[Node, Dict[PNode, Set[Node]]]]]:
    """Evaluate ``Qs`` on ``G`` via strong simulation.

    Returns ``(result, balls)`` where ``result`` accumulates the union
    of all ball-local dual simulations and ``balls`` lists
    ``(center, relation)`` for each ball whose dual simulation matched
    with the center participating.
    """
    radius = pattern_diameter(pattern)
    # Candidate centers: nodes satisfying at least one pattern condition,
    # seeded from the label index.  An empty seed for any pattern node
    # means no ball can host a full dual simulation, so no match.
    seeds = condition_candidates(pattern, graph)
    if seeds is None:
        return MatchResult.empty(), []
    candidate_union = set().union(*seeds.values())
    centers = [v for v in graph.nodes() if v in candidate_union]

    union: Dict[PNode, Set[Node]] = {u: set() for u in pattern.nodes()}
    matched_balls: List[Tuple[Node, Dict[PNode, Set[Node]]]] = []
    for center in centers:
        # The dual fixpoint on the subgraph the ball induces: seeds and
        # adjacency restricted to its members.
        members = ball(graph, center, radius)
        lookups = dict.fromkeys(
            pattern.edges(),
            (
                lambda v: graph.successors(v) & members,
                lambda v: graph.predecessors(v) & members,
            ),
        )
        local = {u: seeds[u] & members for u in pattern.nodes()}
        sim = WitnessCounters(pattern, local, lookups, dual=True).sim
        if sim is None:
            continue
        if not any(center in matched for matched in sim.values()):
            continue
        matched_balls.append((center, sim))
        for u, matched in sim.items():
            union[u].update(matched)

    if not matched_balls:
        return MatchResult.empty(), []
    edge_matches = edge_matches_from_nodes(pattern.edges(), union, graph.successors)
    return MatchResult(union, edge_matches), matched_balls
