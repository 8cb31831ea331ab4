"""View matches for bounded patterns (Section VI-B, Proposition 11).

``M^Qb_V`` is computed by evaluating the view ``V`` over ``Qb`` treated
as a *weighted* data graph whose edge weights are the bounds ``fe(e)``
(``*`` = infinite weight for finite-bound checks; still traversable for
``*``-bound checks).  Node-level matching uses the maximum bounded
simulation of ``V`` over that weighted graph, with min-weight path
distances -- sound because matches compose along pattern paths.

Edge-level coverage gets one extra guard (see DESIGN.md, "Bounded
view-match semantics"): pattern edge ``e = (u, u')`` counts as covered
by view edge ``eV = (x, y)`` with bound ``b`` iff ``u ∈ sim(x)``,
``u' ∈ sim(y)`` *and* ``fe(e) <= b`` (with ``* <= *`` only).  Without
the direct-weight guard a view could be credited for pairs it does not
actually materialize (matches of ``e`` at distances between ``b`` and
``fe(e)``), which would make Proposition 11 unsound.  Example 9 and
Fig. 6 of the paper behave identically under this reading.
"""

from __future__ import annotations

from repro.core.view_match import ViewMatch, _view_match
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.distance import WeightedPatternDistances
from repro.views.view import ViewDefinition


def _as_bounded(pattern: Pattern) -> BoundedPattern:
    if isinstance(pattern, BoundedPattern):
        return pattern
    return pattern.bounded(default=1)


def view_match_bounded(query: Pattern, view: ViewDefinition) -> ViewMatch:
    """Compute ``M^Qb_V`` (as edge coverage plus the λ fragments).

    Both the query and the view pattern are promoted to bounded patterns
    (plain edges get bound 1), so mixed view sets are supported; a plain
    pattern with all-1 bounds yields exactly the simulation view match.
    """
    qb = _as_bounded(query)
    distances = WeightedPatternDistances(qb)
    return _view_match(qb, _as_bounded(view.pattern), view.name, distances=distances)
