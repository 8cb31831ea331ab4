"""Distance oracles used by the bounded-simulation machinery.

Three flavours are needed:

* forward bounded BFS on data graphs (match-set construction and the
  view distance index ``I(V)``);
* multi-source *reverse* bounded BFS (the BMatch refinement asks "which
  nodes can reach the current match set of u' within k hops?");
* all-pairs shortest paths on *weighted pattern graphs* (bounded view
  matches treat ``Qb`` as a weighted data graph whose edge weights are
  the bounds ``fe(e)``; a ``*`` weight is infinite for finite-bound
  checks, but still usable for plain reachability).

Path lengths are counted over nonempty paths: ``dist(v, v) >= 1`` and is
finite only when ``v`` lies on a cycle, matching the paper's semantics
of mapping a pattern edge to a *nonempty* path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Hashable, Iterable, Set, Tuple

from repro.graph.pattern import ANY, Bound

Node = Hashable

#: Effectively-infinite distance for weighted pattern graphs.
INF = float("inf")


def reachable_from(graph, source: Node) -> Set[Node]:
    """All nodes reachable from ``source`` by a nonempty path."""
    seen: Set[Node] = set()
    stack = list(graph.successors(source))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.successors(node) - seen)
    return seen


def reverse_reachable_within(
    graph, targets: Iterable[Node], bound: Bound
) -> Set[Node]:
    """Nodes with a nonempty path of length within ``bound`` *into* ``targets``.

    This is the multi-source reverse BFS at the heart of the BMatch
    refinement: ``sim(u)`` may only keep nodes in
    ``reverse_reachable_within(G, sim(u1), fe(u, u1))``.
    """
    seen: Set[Node] = set()
    if bound is ANY:
        stack: list = []
        for target in targets:
            stack.extend(graph.predecessors(target))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.predecessors(node) - seen)
        return seen
    frontier = deque()
    for target in targets:
        for pred in graph.predecessors(target):
            frontier.append((pred, 1))
    while frontier:
        node, depth = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        if depth < bound:
            for pred in graph.predecessors(node):
                if pred not in seen:
                    frontier.append((pred, depth + 1))
    return seen


class WeightedPatternDistances:
    """All-pairs nonempty-path distances over a bounded pattern ``Qb``.

    ``Qb`` is treated as a weighted data graph whose edge weights are
    its bounds; ``*`` edges have weight :data:`INF` so they never help a
    finite-bound check, yet :meth:`reaches` still sees them (a ``*``
    view bound only needs *some* nonempty path).
    """

    def __init__(self, pattern) -> None:
        self._dist: Dict[Node, Dict[Node, float]] = {}
        self._reach: Dict[Node, Set[Node]] = {}
        weights: Dict[Tuple[Node, Node], float] = {}
        for edge in pattern.edges():
            bound = pattern.bound(edge)
            weights[edge] = INF if bound is ANY else float(bound)
        for source in pattern.nodes():
            self._dist[source] = self._dijkstra(pattern, source, weights)
            self._reach[source] = self._reachable(pattern, source)

    @staticmethod
    def _dijkstra(pattern, source: Node, weights) -> Dict[Node, float]:
        # Nonempty paths only: seed the heap with the out-edges of
        # ``source`` instead of with ``source`` at distance 0.
        dist: Dict[Node, float] = {}
        heap: list = []
        for target in pattern.successors(source):
            weight = weights[(source, target)]
            if weight < INF:
                heapq.heappush(heap, (weight, id(target), target))
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = d
            for target in pattern.successors(node):
                if target not in dist:
                    weight = weights[(node, target)]
                    if weight < INF:
                        heapq.heappush(heap, (d + weight, id(target), target))
        return dist

    @staticmethod
    def _reachable(pattern, source: Node) -> Set[Node]:
        seen: Set[Node] = set()
        stack = list(pattern.successors(source))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(pattern.successors(node) - seen)
        return seen

    def distance(self, source: Node, target: Node) -> float:
        """Min-weight nonempty path distance (``INF`` when unreachable
        through finite-weight edges)."""
        return self._dist[source].get(target, INF)

    def reaches(self, source: Node, target: Node) -> bool:
        """Is there *any* nonempty path, ``*`` edges included?"""
        return target in self._reach[source]

    def within(self, source: Node, target: Node, bound: Bound) -> bool:
        """Does some nonempty path from ``source`` to ``target`` respect
        ``bound``?  (Any path for ``*``, min-weight <= k otherwise.)"""
        return target in self.reached(source, bound)

    def reached(self, source: Node, bound: Bound) -> Set[Node]:
        """Every node :meth:`within` ``bound`` of ``source`` (read only)."""
        if bound is ANY:
            return self._reach[source]
        return {target for target, d in self._dist[source].items() if d <= bound}


class BoundedDistanceCache:
    """Memoizing forward bounded-BFS oracle over a data graph.

    BMatch repeatedly asks for the descendants of the same node at the
    same (or smaller) depth while building match sets; caching by
    ``(node, depth)`` with depth-widening keeps this linear in practice.
    """

    def __init__(self, graph) -> None:
        self._graph = graph
        self._cache: Dict[Node, Tuple[int, Dict[Node, int]]] = {}
        self._full: Dict[Node, Set[Node]] = {}

    def descendants(self, source: Node, bound: int) -> Dict[Node, int]:
        """``{node: distance}`` for nonempty paths of length <= bound."""
        cached = self._cache.get(source)
        if cached is not None and cached[0] >= bound:
            depth, dist = cached
            if depth == bound:
                return dist
            return {node: d for node, d in dist.items() if d <= bound}
        dist = self._graph.descendants_within(source, bound)
        self._cache[source] = (bound, dist)
        return dist

    def reachable(self, source: Node) -> Set[Node]:
        """All nodes reachable by a nonempty path (memoized)."""
        if source not in self._full:
            self._full[source] = reachable_from(self._graph, source)
        return self._full[source]

    def within(self, source: Node, target: Node, bound: Bound) -> bool:
        if bound is ANY:
            return target in self.reachable(source)
        return target in self.descendants(source, bound)
