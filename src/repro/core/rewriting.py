"""Partial answering when ``Q ⋢ V`` (Section VIII, future-work item 2).

When a query is *not* contained in the available views, Theorem 1 rules
out answering it from the views alone.  Two useful fallbacks are
provided:

* :func:`partial_answer` -- evaluate the *covered subpattern* (the
  query restricted to edges some view match covers) from the views
  only.  Because constraints were dropped, each returned match set is a
  **superset** of the full query's (restricted to covered edges): an
  over-approximation suitable for pruning, previews, or routing.
* :func:`hybrid_answer` -- compute the **exact** ``Q(G)``, touching
  ``G`` only for the uncovered edges: covered edges merge from the
  views (as in MatchJoin), uncovered edges scan label-compatible data
  edges, and one shared fixpoint refines both.  When most of the query
  is covered this does a small fraction of Match's work while staying
  exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Mapping, Set, Tuple, Union

from repro.core.containment import Containment, Views, contains, _normalize
from repro.core.matchjoin import join_pair_sets, merge_initial_sets
from repro.errors import UnsupportedPatternError
from repro.graph.digraph import DataGraph
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.result import MatchResult
from repro.simulation.seeding import node_candidates
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView

PEdge = Tuple[Hashable, Hashable]
Extensions = Mapping[str, MaterializedView]


@dataclass
class PartialAnswer:
    """Result of :func:`partial_answer`."""

    result: MatchResult
    covered_subpattern: Pattern
    covered: FrozenSet[PEdge]
    uncovered: FrozenSet[PEdge]
    containment: Containment

    @property
    def coverage(self) -> float:
        """Fraction of query edges some view match covers (1.0 means
        ``Q ⊑ V`` and the answer is exact, per Theorem 1)."""
        total = len(self.covered) + len(self.uncovered)
        return len(self.covered) / total if total else 1.0


def partial_answer(
    query: Pattern,
    views: ViewSet,
    graph: DataGraph = None,
) -> PartialAnswer:
    """Answer the covered subpattern of ``query`` from views only.

    The subpattern keeps exactly the edges some view match covers; its
    match sets over-approximate the full query's on those edges (the
    uncovered edges' constraints are not enforced).  ``graph`` is used
    only to materialize missing extensions, mirroring
    :func:`repro.core.answer.answer_with_views`.
    """
    if isinstance(query, BoundedPattern):
        from repro.core.bounded.bcontainment import bounded_contains

        containment = bounded_contains(query, views)
    else:
        containment = contains(query, views)
    covered = frozenset(containment.mapping)
    if not covered:
        return PartialAnswer(
            MatchResult.empty(), Pattern(), covered,
            frozenset(query.edge_set()), containment,
        )
    subpattern = query.subpattern(covered)
    sub_containment = Containment(
        holds=True,
        mapping={e: containment.mapping[e] for e in covered},
        uncovered=frozenset(),
        view_names=containment.view_names,
    )
    needed = [
        name
        for name in containment.views_used()
        if any(ref[0] == name for refs in sub_containment.mapping.values() for ref in refs)
    ]
    if graph is not None:
        missing = [n for n in needed if not views.is_materialized(n)]
        if missing:
            views.materialize(graph, names=missing)
    extensions = {name: views.extension(name) for name in needed}
    if isinstance(query, BoundedPattern):
        from repro.core.bounded.bmatchjoin import bounded_match_join

        result = bounded_match_join(subpattern, sub_containment, extensions)
    else:
        from repro.core.matchjoin import match_join

        result = match_join(subpattern, sub_containment, extensions)
    return PartialAnswer(
        result, subpattern, covered, containment.uncovered, containment
    )


def hybrid_answer(
    query: Pattern,
    views: ViewSet,
    graph: DataGraph,
) -> MatchResult:
    """Exact ``Q(G)`` touching ``G`` only for uncovered edges.

    Initial match sets: covered edges merge their λ-image view pairs;
    uncovered edges take every data edge whose endpoints satisfy the
    pattern conditions.  Both initializations are supersets of the true
    match sets, so the shared MatchJoin fixpoint converges to exactly
    ``Q(G)`` (the Theorem 1 invariant).  Bounded queries are supported:
    uncovered edges enumerate bounded-BFS pairs.

    Convenience wrapper: runs the containment check and materializes
    missing extensions, then delegates to :func:`hybrid_join`.
    """
    bounded = isinstance(query, BoundedPattern)
    if bounded:
        from repro.core.bounded.bcontainment import bounded_contains

        containment = bounded_contains(query, views)
    else:
        containment = contains(query, views)
    needed = {ref[0] for refs in containment.mapping.values() for ref in refs}
    missing = [n for n in needed if not views.is_materialized(n)]
    if missing:
        views.materialize(graph, names=missing)
    extensions = {name: views.extension(name) for name in needed}
    return hybrid_join(query, containment, extensions, graph)


def hybrid_join(
    query: Pattern,
    containment: Containment,
    extensions: Extensions,
    graph: DataGraph,
) -> MatchResult:
    """The hybrid evaluation kernel: covered edges from ``extensions``,
    uncovered edges from ``graph``, one shared fixpoint (the MatchJoin
    kernel, over node-key rows).

    ``containment`` carries the λ mapping of the covered edges (it need
    not hold -- partial coverage is the point); ``extensions`` must
    contain every view the mapping references; ``graph`` may be the
    mutable :class:`DataGraph` or a frozen
    :class:`~repro.graph.compact.CompactGraph` snapshot.
    """
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; evaluate directly with match()"
        )
    bounded = isinstance(query, BoundedPattern)
    covered = frozenset(containment.mapping) & frozenset(query.edge_set())

    # Covered part: exactly MatchJoin's merge, on the covered subpattern.
    initial: Dict[PEdge, Set] = {}
    if covered:
        subpattern = query.subpattern(covered)
        sub_containment = Containment(
            holds=True,
            mapping={e: containment.mapping[e] for e in covered},
            uncovered=frozenset(),
            view_names=containment.view_names,
        )
        if bounded:
            from repro.core.bounded.bmatchjoin import merge_initial_sets_bounded

            initial.update(
                merge_initial_sets_bounded(subpattern, sub_containment, extensions)
            )
        else:
            initial.update(
                merge_initial_sets(subpattern, sub_containment, extensions)
            )

    # Uncovered part: seed candidates through
    # :func:`repro.simulation.seeding.node_candidates`, *narrowed
    # through the covered part*: any final match of node ``u`` must have a
    # successor matching every outgoing pattern edge of ``u``, so it
    # must appear among the *sources* of each covered edge ``(u, x)``'s
    # initial pairs (which over-approximate per Theorem 1).  Only the
    # source side anchors -- simulation imposes no predecessor
    # requirement, so the targets of a covered incoming edge are NOT a
    # superset of the node's match set (that would be dual-simulation
    # semantics).  Both refinements keep each candidate set a superset
    # of the true match set, so the shared fixpoint still converges to
    # exactly ``Q(G)`` -- but the uncovered scan now fans out from the
    # covered anchors instead of a whole label bucket, which is what
    # makes hybrid rewriting cheap when coverage is high.
    covered_endpoints: Dict[Hashable, Set] = {}
    for (u, _u1), pairs in initial.items():
        sources = {v for v, _ in pairs}
        if u in covered_endpoints:
            covered_endpoints[u] &= sources
        else:
            covered_endpoints[u] = sources

    candidates: Dict = {}

    def matches_of(u):
        if u not in candidates:
            candidates[u] = node_candidates(
                query.condition(u), graph, pool=covered_endpoints.get(u)
            )
        return candidates[u]

    for edge in query.edges():
        if edge in covered:
            continue
        u, u1 = edge
        sources = matches_of(u)
        targets = matches_of(u1)
        pairs: Set = set()
        if bounded:
            bound = query.bound(edge)
            from repro.graph.pattern import ANY
            from repro.simulation.distance import BoundedDistanceCache

            cache = BoundedDistanceCache(graph)
            for v in sources:
                if bound is ANY:
                    pairs.update(
                        (v, w) for w in cache.reachable(v) if w in targets
                    )
                else:
                    pairs.update(
                        (v, w)
                        for w in cache.descendants(v, bound)
                        if w in targets
                    )
        else:
            for v in sources:
                pairs.update((v, w) for w in graph.successors(v) if w in targets)
        initial[edge] = pairs

    return join_pair_sets(query, initial)
