"""Pattern containment checking (Sections III-V; Theorem 3).

``Qs ⊑ V`` iff there is a mapping λ from pattern edges to sets of view
edges such that, in every graph, each edge's match set is contained in
the union of its λ-images' match sets.  Proposition 7 reduces this to
view-match coverage: ``Qs ⊑ V`` iff ``Ep = ∪_V M^Qs_V``; the λ mapping
falls out as the reversed view-match relation.

:func:`contains` implements algorithm ``contain`` (and its bounded
sibling ``Bcontain`` via dispatch on the query/view types), returning a
:class:`Containment` that carries λ in the form MatchJoin consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Tuple,
    Union,
)

from repro.graph.pattern import BoundedPattern, Pattern
from repro.views.storage import ViewSet

if TYPE_CHECKING:
    from repro.core.view_match import ViewMatch
    from repro.views.view import ViewDefinition

PNode = Hashable
PEdge = Tuple[PNode, PNode]
#: λ entries: (view name, view edge)
LambdaRef = Tuple[str, PEdge]

Views = Union[ViewSet, Iterable["ViewDefinition"]]


@dataclass(frozen=True)
class Containment:
    """The outcome of a containment check, λ mapping included.

    Attributes
    ----------
    holds:
        Whether ``Q ⊑ V``.
    mapping:
        λ: ``{pattern edge: ((view name, view edge), ...)}``.  Complete
        (covers all of ``Ep``) exactly when ``holds``.
    uncovered:
        Pattern edges no view match covers (empty when ``holds``).
    view_names:
        Views contributing at least one λ entry, in first-use order.
    """

    holds: bool
    mapping: Dict[PEdge, Tuple[LambdaRef, ...]]
    uncovered: FrozenSet[PEdge]
    view_names: Tuple[str, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.holds

    def views_used(self) -> Tuple[str, ...]:
        """Names of the views λ draws from, in first-use order -- the
        ``V'`` whose extensions MatchJoin must read (the paper reports
        this as "#views used", Exp-1)."""
        return self.view_names


def _normalize(views: Views) -> List[ViewDefinition]:
    if isinstance(views, ViewSet):
        return views.definitions()
    return list(views)


def _view_match_fn(query: Pattern, definitions: List[ViewDefinition]):
    """Pick the simulation or bounded view-match routine.

    Mixed settings (bounded query with plain views or vice versa) go
    through the bounded machinery, where plain edges mean bound 1.
    """
    if isinstance(query, BoundedPattern) or any(d.is_bounded for d in definitions):
        from repro.core.bounded.bview_match import view_match_bounded

        return view_match_bounded
    from repro.core.view_match import view_match_simulation

    return view_match_simulation


def merge_view_matches(
    query: Pattern, matches: Iterable[ViewMatch]
) -> Containment:
    """Assemble a :class:`Containment` from per-view matches
    (the union step of algorithm ``contain``)."""
    mapping: Dict[PEdge, List[LambdaRef]] = {}
    order: List[str] = []
    for view_match in matches:
        used = False
        for edge, view_edges in view_match.edge_cover.items():
            bucket = mapping.setdefault(edge, [])
            for view_edge in view_edges:
                bucket.append((view_match.view_name, view_edge))
                used = True
        if used and view_match.view_name not in order:
            order.append(view_match.view_name)
    edge_set = query.edge_set()
    uncovered = frozenset(edge_set - set(mapping))
    frozen = {edge: tuple(refs) for edge, refs in mapping.items() if edge in edge_set}
    return Containment(
        holds=not uncovered,
        mapping=frozen,
        uncovered=uncovered,
        view_names=tuple(order),
    )


def contains(query: Pattern, views: Views) -> Containment:
    """Decide ``Q ⊑ V`` and compute λ (algorithms contain / Bcontain).

    Runs in ``O(card(V)|Q|^2 + |V|^2 + |Q||V|)`` for simulation patterns
    (Theorem 3) and ``O(|Qb|^2 |V|)`` for bounded ones (Theorem 10(1)):
    one view-match computation per view plus a union.
    """
    definitions = _normalize(views)
    view_match = _view_match_fn(query, definitions)
    return merge_view_matches(
        query, (view_match(query, definition) for definition in definitions)
    )


#: View-selection policies and where their (plain, bounded) routines
#: live; :func:`selector` imports one on first use, so planning with
#: one policy never loads the others.
_SELECTORS = {
    "all": (
        ("repro.core.containment", "contains"),
        ("repro.core.bounded.bcontainment", "bounded_contains"),
    ),
    "minimal": (
        ("repro.core.minimal", "minimal_views"),
        ("repro.core.bounded.bminimal", "bounded_minimal_views"),
    ),
    "minimum": (
        ("repro.core.minimum", "minimum_views"),
        ("repro.core.bounded.bminimum", "bounded_minimum_views"),
    ),
}

#: The selection policy names: ``"all"`` (algorithm ``contain``),
#: ``"minimal"`` (Theorem 5) and ``"minimum"`` (Theorem 6).
SELECTIONS = tuple(_SELECTORS)


def selector(selection: str, bounded: bool = False):
    """The ``(query, views) -> Containment`` routine of one selection
    policy (its Section VI sibling when ``bounded``)."""
    module, name = _SELECTORS[selection][1 if bounded else 0]
    return getattr(import_module(module), name)


def query_contained(sub: Pattern, sup: Pattern) -> bool:
    """Classical query containment ``Q1 ⊑ Q2`` (Corollary 4).

    The special case of pattern containment where ``V`` holds a single
    view; in quadratic time, in contrast to NP-completeness for
    relational conjunctive queries.
    """
    from repro.views.view import ViewDefinition

    return contains(sub, [ViewDefinition("__sup__", sup)]).holds


def equivalent(left: Pattern, right: Pattern) -> bool:
    """Mutual containment of two pattern queries."""
    return query_contained(left, right) and query_contained(right, left)
