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
from array import array
from functools import partial
from typing import Dict, FrozenSet, Hashable, Mapping, Set, Tuple

from repro.core.answer import extensions_on
from repro.core.containment import Containment, contains
from repro.core.matchjoin import _check_inputs, _id_inputs, _run_kernel
from repro.errors import UnsupportedPatternError
from repro.graph.digraph import DataGraph
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.result import MatchResult
from repro.simulation.seeding import node_candidates
from repro.views.flatpack import group_by_target
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


def _containment(query: Pattern, views: ViewSet) -> Containment:
    if isinstance(query, BoundedPattern):
        from repro.core.bounded.bcontainment import bounded_contains

        return bounded_contains(query, views)
    return contains(query, views)


def _covered_part(
    query: Pattern, containment: Containment, covered: FrozenSet[PEdge]
) -> Tuple[Pattern, Containment]:
    """The subpattern of the ``covered`` edges and the (holding)
    containment of it that λ's restriction gives."""
    return query.subpattern(covered), Containment(
        holds=True,
        mapping={e: containment.mapping[e] for e in covered},
        uncovered=frozenset(),
        view_names=containment.view_names,
    )


def _referenced(containment: Containment) -> Tuple[str, ...]:
    """The views λ draws on, in first-use order."""
    found = {ref[0] for refs in containment.mapping.values() for ref in refs}
    return tuple(name for name in containment.views_used() if name in found)


def partial_answer(
    query: Pattern,
    views: ViewSet,
    graph: DataGraph = None,
) -> PartialAnswer:
    """Answer the covered subpattern of ``query`` from views only.

    The subpattern keeps exactly the edges some view match covers; its
    match sets over-approximate the full query's on those edges (the
    uncovered edges' constraints are not enforced).  ``graph`` is used
    only to materialize extensions that are missing or of another
    snapshot, as :func:`repro.core.answer.answer_with_views` does.
    """
    containment = _containment(query, views)
    covered = frozenset(containment.mapping)
    if not covered:
        return PartialAnswer(
            MatchResult.empty(), Pattern(), covered,
            frozenset(query.edge_set()), containment,
        )
    subpattern, sub_containment = _covered_part(query, containment, covered)
    extensions = extensions_on(views, _referenced(containment), graph)
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
    extensions that are missing or of another snapshot than
    ``graph.freeze()``, then delegates to :func:`hybrid_join`.
    """
    containment = _containment(query, views)
    extensions = extensions_on(views, _referenced(containment), graph)
    return hybrid_join(query, containment, extensions, graph)


def hybrid_join(
    query: Pattern,
    containment: Containment,
    extensions: Extensions,
    graph: DataGraph,
) -> MatchResult:
    """The hybrid evaluation kernel: covered edges from ``extensions``,
    uncovered edges from ``graph``, one shared fixpoint (the MatchJoin
    kernel, over the id rows of ``graph.freeze()``).

    ``containment`` carries the λ mapping of the covered edges (it need
    not hold -- partial coverage is the point); ``extensions`` must
    contain every view the mapping references, materialized on
    ``graph.freeze()`` (``ValueError`` naming the views otherwise);
    ``graph`` may be the mutable :class:`DataGraph` or a frozen
    :class:`~repro.graph.compact.CompactGraph` snapshot.
    """
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; evaluate directly with match()"
        )
    bounded = isinstance(query, BoundedPattern)
    covered = frozenset(containment.mapping) & frozenset(query.edge_set())
    snapshot = graph.freeze()

    # Covered part: exactly MatchJoin's merge, on the covered subpattern.
    inputs: Dict[PEdge, tuple] = {}
    if covered:
        subpattern, sub_containment = _covered_part(query, containment, covered)
        token = _check_inputs(subpattern, sub_containment, extensions)
        if token != snapshot.snapshot_token:
            raise ValueError(
                f"views {list(_referenced(sub_containment))} were not "
                "materialized on this graph's snapshot; materialize them on it"
            )
        bound_of = None
        if bounded:
            from repro.core.bounded.bmatchjoin import _filter_bound

            bound_of = partial(_filter_bound, query)
        inputs.update(_id_inputs(subpattern, sub_containment, extensions, bound_of)[0])

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
    for (u, _u1), (_, sources, _, _, _) in inputs.items():
        if u in covered_endpoints:
            covered_endpoints[u] &= sources
        else:
            covered_endpoints[u] = set(sources)
    node_of, id_of = snapshot.node_of, snapshot.id_of

    candidates: Dict = {}

    def matches_of(u):
        if u not in candidates:
            pool = covered_endpoints.get(u)
            candidates[u] = node_candidates(
                query.condition(u),
                graph,
                pool=None if pool is None else map(node_of, pool),
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
        src_row = array("q", [id_of(v) for v, _ in pairs])
        tgt_row = array("q", [id_of(w) for _, w in pairs])
        inputs[edge] = (
            [(src_row, tgt_row)],
            frozenset(src_row),
            frozenset(tgt_row),
            None,
            [partial(group_by_target, src_row, tgt_row)],
        )

    return _run_kernel(query, "ids", lambda: (inputs, node_of))
