"""Answering queries using views under *dual simulation* (Section VIII).

The paper closes by noting that "our techniques can be readily extended
to strong simulation [28], retaining the same complexity", dual
simulation being the key ingredient.  This module carries the full
pipeline over:

* :func:`dual_view_match` -- evaluate ``V`` over ``Qs`` via dual
  simulation (child *and* parent conditions), with the same
  condition-implication node test and condition-equivalence coverage
  guard as the simulation case.
* :func:`dual_contains` -- Proposition 7 verbatim over dual view
  matches.
* :func:`dual_match_join` -- the MatchJoin analogue whose fixpoint
  enforces both out-edge and in-edge witnesses.

All three run the dict fixpoint of plain simulation
(:class:`~repro.simulation.witness.WitnessCounters`) with its parent
counters added.

The soundness argument mirrors Theorem 1: dual-simulation matches
transfer from query nodes to view nodes (the coinductive relation
``{(x, v) : (x,u) in dualsim(V over Q), v in dualmatch(u)}`` is itself
a dual simulation of ``V`` over ``G``), so merged sets over-approximate
the true match sets, and the dual fixpoint prunes to exactly ``Q(G)``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Mapping, Set, Tuple, Union

from repro.core.containment import Containment, Views, _normalize, merge_view_matches
from repro.core.matchjoin import _extensions_of, merge_initial_sets
from repro.core.view_match import ViewMatch, _view_match
from repro.graph.pattern import Pattern
from repro.simulation.result import MatchResult
from repro.simulation.simulation import dual_match
from repro.simulation.witness import WitnessCounters
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView, ViewDefinition, snapshot_extension

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]
Extensions = Mapping[str, MaterializedView]


def dual_view_match(query: Pattern, view: ViewDefinition) -> ViewMatch:
    """``M^Qs_V`` computed via dual simulation of ``V`` over ``Qs``."""
    return _view_match(query, view.pattern, view.name, dual=True)


def dual_contains(query: Pattern, views: Views) -> Containment:
    """``Q ⊑_dual V``: coverage by dual view matches.

    Views must themselves be *materialized via dual simulation* for the
    resulting λ to be usable by :func:`dual_match_join` -- see
    :func:`materialize_dual`.
    """
    definitions = _normalize(views)
    return merge_view_matches(
        query, (dual_view_match(query, d) for d in definitions)
    )


def materialize_dual(definition: ViewDefinition, graph) -> MaterializedView:
    """Materialize a view's extension under dual simulation semantics,
    as id rows of ``graph.freeze()`` (the snapshot
    :func:`~repro.views.view.materialize` binds extensions to)."""
    snapshot = graph.freeze()
    result = dual_match(definition.pattern, graph)
    id_rows = None
    if result:
        id_of = snapshot.id_of
        id_rows = {
            edge: (
                array("q", [id_of(v) for v, _ in pairs]),
                array("q", [id_of(w) for _, w in pairs]),
            )
            for edge, pairs in result.edge_matches.items()
        }
    return snapshot_extension(definition, snapshot, id_rows)


def dual_match_join(
    query: Pattern,
    containment: Containment,
    extensions: Union[Extensions, ViewSet],
) -> MatchResult:
    """Evaluate ``Qs`` under dual simulation from dual view extensions.

    ``containment`` must come from :func:`dual_contains` and
    ``extensions`` from :func:`materialize_dual` (plain simulation
    extensions over-approximate dual ones, so they would also converge,
    but dual extensions are smaller).

    The merged set ``Se`` of each query edge is indexed both ways, and
    the fixpoint runs over those indexes with ``u``'s candidates the
    nodes every incident ``Se`` names at ``u``'s end; a pair survives
    iff both its endpoints do."""
    initial = merge_initial_sets(query, containment, _extensions_of(extensions))
    forward: Dict[PEdge, Dict[Node, Set[Node]]] = {}
    backward: Dict[PEdge, Dict[Node, Set[Node]]] = {}
    for edge, pairs in initial.items():
        by_source = forward[edge] = {}
        by_target = backward[edge] = {}
        for v, w in pairs:
            by_source.setdefault(v, set()).add(w)
            by_target.setdefault(w, set()).add(v)
    candidates: Dict[PNode, Set[Node]] = {}
    for u in query.nodes():
        ends = [forward[edge].keys() for edge in query.out_edges(u)]
        ends += [backward[edge].keys() for edge in query.in_edges(u)]
        candidates[u] = set(ends[0]).intersection(*ends[1:])
    lookups = {
        edge: (forward[edge].__getitem__, backward[edge].__getitem__)
        for edge in initial
    }
    sim = WitnessCounters(query, candidates, lookups, dual=True).sim
    if sim is None:
        return MatchResult.empty()
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    for edge, by_source in forward.items():
        u, u1 = edge
        targets = sim[u1]
        edge_matches[edge] = {
            (v, w) for v in sim[u] for w in by_source[v] if w in targets
        }
    return MatchResult(sim, edge_matches)
