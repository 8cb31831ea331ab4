"""View matches for simulation patterns (Section IV, Proposition 7).

Given a view ``V`` and a pattern query ``Qs``, the *view match*
``M^Qs_V`` is obtained by evaluating ``V`` over ``Qs`` treated as a data
graph: for every view edge ``eV``, its match set ``SeV`` consists of
pattern edges of ``Qs``; ``M^Qs_V`` is their union.  Proposition 7 then
characterizes containment: ``Qs ⊑ V`` iff the view matches of all views
in ``V`` jointly cover ``Ep``.

Node-level compatibility when evaluating ``V`` over ``Qs`` is condition
*implication* (see :func:`repro.graph.conditions.implies`): view node
``x`` may match pattern node ``u`` only when every data node satisfying
``fv(u)`` is guaranteed to satisfy ``fv(x)`` -- with plain labels this
is label equality, exactly the paper's setting.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.graph.conditions import implies
from repro.graph.pattern import Pattern, bound_le
from repro.simulation.witness import WitnessCounters
from repro.views.view import ViewDefinition

PNode = Hashable
PEdge = Tuple[PNode, PNode]


class ViewMatch:
    """The view match ``M^Q_V`` of one view against one query.

    Attributes
    ----------
    view_name:
        Name of the view definition.
    edge_cover:
        ``{pattern edge e: [view edges whose match set contains e]}`` --
        the "reversed view match relation" from which the λ mapping of
        pattern containment is constructed (proof of Proposition 7).
    covered:
        ``M^Q_V`` itself, as a frozenset of pattern edges.
    """

    __slots__ = ("view_name", "edge_cover", "covered")

    def __init__(self, view_name: str, edge_cover: Dict[PEdge, List[PEdge]]) -> None:
        self.view_name = view_name
        self.edge_cover = edge_cover
        self.covered: FrozenSet[PEdge] = frozenset(edge_cover)

    def __repr__(self) -> str:
        return f"ViewMatch({self.view_name!r}, covers={len(self.covered)})"


def view_match_simulation(query: Pattern, view: ViewDefinition) -> ViewMatch:
    """Compute ``M^Qs_V`` by evaluating ``V`` over ``Qs`` via simulation.

    Costs ``O(|Qs||V| + |Qs|^2 + |V|^2)`` per Theorem 3's accounting
    (the simulation evaluation of [16] on the small graphs involved).

    Node-level simulation uses condition *implication* (sound for the
    structural transfer: every data match of the pattern node is then a
    match of the view node).  Edge-level coverage additionally requires
    condition *equivalence* at the covering edge's endpoints: the view
    extension stores bare node pairs, so a strictly weaker view
    condition would smuggle pairs that violate the query's condition
    into MatchJoin's merge with no way to filter them without accessing
    ``G``.  With the paper's plain labels, implication *is* equality, so
    this is exactly the paper's setting; it only bites for the
    Boolean-predicate extension (Fig. 7 views), where it keeps Theorem 1
    sound.
    """
    return _view_match(query, view.pattern, view.name)


def _view_match(
    query: Pattern,
    view_pattern: Pattern,
    name: str,
    dual: bool = False,
    distances=None,
) -> ViewMatch:
    """``M^Q_V`` as :func:`view_match_simulation` describes it; under
    dual simulation when ``dual``; with the query's
    :class:`~repro.simulation.distance.WeightedPatternDistances` the
    bounded form (Section VI-B): a view edge of bound ``b`` is witnessed
    within ``b`` and covers only query edges of bound ``<= b``."""
    query_nodes = list(query.nodes())
    sim = {}
    for x in view_pattern.nodes():
        condition = view_pattern.condition(x)
        sim[x] = {u for u in query_nodes if implies(query.condition(u), condition)}
        if not sim[x]:
            return ViewMatch(name, {})
    if distances is None:
        witness = (query.successors, query.predecessors)
        lookups = dict.fromkeys(view_pattern.edges(), witness)
    else:
        lookups = {
            (x, y): _within(distances, sim[x], sim[y], view_pattern.bound((x, y)))
            for x, y in view_pattern.edges()
        }
    sim = WitnessCounters(view_pattern, sim, lookups, dual).sim
    edge_cover: Dict[PEdge, List[PEdge]] = {}
    if sim is not None:
        equivalent: Dict[tuple, bool] = {}

        def covers(x: PNode, u: PNode) -> bool:
            # u in sim[x] already gives query->view implication; the
            # reverse direction upgrades it to equivalence.
            key = (x, u)
            if key not in equivalent:
                equivalent[key] = implies(
                    view_pattern.condition(x), query.condition(u)
                )
            return equivalent[key]

        for view_edge in view_pattern.edges():
            x, y = view_edge
            sources = sim[x]
            targets = sim[y]
            for u in sources:
                if not covers(x, u):
                    continue
                for u1 in query.successors(u):
                    if u1 not in targets or not covers(y, u1):
                        continue
                    if distances is None or bound_le(
                        query.bound((u, u1)), view_pattern.bound(view_edge)
                    ):
                        edge_cover.setdefault((u, u1), []).append(view_edge)
    return ViewMatch(name, edge_cover)


def _within(distances, sources: Set[PNode], targets: Set[PNode], bound) -> tuple:
    """``(successors, predecessors)`` of the weighted query graph at
    ``bound``, between one view edge's source and target candidates."""
    after = {u: targets & distances.reached(u, bound) for u in sources}
    before = {u1: {u for u in sources if u1 in after[u]} for u1 in targets}
    return after.__getitem__, before.__getitem__
