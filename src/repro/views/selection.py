"""Workload-driven view selection (Section VIII, future-work item 1).

"One issue is to decide what views to cache such that a set of
frequently used pattern queries can be answered by using the views."
Given a workload of queries and a pool of candidate views, greedy
set-cover over the combined universe of ``(query, pattern edge)``
elements picks a small cache that contains *every* workload query --
the multi-query generalization of algorithm ``minimum``.

:func:`candidate_views_from_workload` derives a natural candidate pool
when none is supplied: every single-edge subpattern (always sufficient)
plus each whole query (so popular query shapes can be cached outright).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.pattern import Pattern
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition

PEdge = Tuple[Hashable, Hashable]
Element = Tuple[int, PEdge]  # (query index, pattern edge)


def maintenance_cost(counters: Optional[Dict[str, int]]) -> float:
    """A unitless work proxy for what keeping one view fresh has cost.

    Derived from a :class:`~repro.views.maintenance.ViewStats` snapshot:
    the affected area visited by incremental steps, plus a heavy weight
    per full recomputation and per extension rebuild, so views can be
    compared by how much churn keeping them costs.
    """
    if not counters:
        return 0.0
    return float(
        counters.get("affected_area", 0)
        + 10 * counters.get("recomputes", 0)
        + counters.get("extension_builds", 0)
    )


def selection_stats(
    views: ViewSet,
    maintenance=None,
    plan_log: Iterable = (),
) -> Dict[str, Dict[str, object]]:
    """Per-view cache statistics: size, maintenance cost, hit count.

    One row per view definition: whether (and how large) its extension
    is materialized, the maintenance counters the attached tracker has
    accumulated (``maintenance``: an engine's attached tracker), and
    how many delivered answers in ``plan_log`` (an iterable of
    :class:`~repro.engine.plan.PlanChoiceRecord`) read the view.  This
    is the ``"selection"`` section of ``repro stats --format json``.
    """
    tracked = maintenance.stats() if maintenance is not None else {}
    hits: Dict[str, int] = {}
    for record in plan_log:
        for name in getattr(record, "views_used", ()):
            hits[name] = hits.get(name, 0) + 1
    out: Dict[str, Dict[str, object]] = {}
    for name in views.names():
        materialized = views.is_materialized(name)
        extension = views.extension(name) if materialized else None
        stats = tracked.get(name)
        counters = stats.snapshot() if stats is not None else None
        out[name] = {
            "materialized": materialized,
            "stale": views.is_stale(name) if materialized else False,
            "bounded": views.definition(name).is_bounded,
            "size": extension.size if extension is not None else None,
            "pairs": extension.num_pairs if extension is not None else None,
            "hits": hits.get(name, 0),
            "maintenance": counters,
            "maintenance_cost": maintenance_cost(counters),
        }
    return out


def candidate_views_from_workload(queries: Sequence[Pattern]) -> ViewSet:
    """Single-edge subpatterns (deduplicated structurally) plus whole
    queries, as a candidate pool for :func:`select_views_for_workload`."""
    views = ViewSet()
    seen: Set = set()
    for qi, query in enumerate(queries):
        for ei, edge in enumerate(query.edges()):
            sub = query.subpattern([edge])
            key = _structure_key(sub)
            if key in seen:
                continue
            seen.add(key)
            views.add(ViewDefinition(f"edge_q{qi}_{ei}", sub))
        key = _structure_key(query)
        if key not in seen:
            seen.add(key)
            views.add(ViewDefinition(f"whole_q{qi}", query.copy()))
    return views


def _structure_key(pattern: Pattern):
    """A canonical-ish key: sorted (source cond, target cond, bound) triples."""
    from repro.graph.pattern import BoundedPattern

    rows = []
    for edge in pattern.edges():
        bound = (
            repr(pattern.bound(edge))
            if isinstance(pattern, BoundedPattern)
            else "1"
        )
        rows.append(
            (repr(pattern.condition(edge[0]).key()),
             repr(pattern.condition(edge[1]).key()), bound)
        )
    return tuple(sorted(rows))


def select_views_for_workload(
    queries: Sequence[Pattern],
    candidates: Optional[ViewSet] = None,
    max_views: Optional[int] = None,
) -> Tuple[ViewSet, Dict[int, List[str]]]:
    """Greedy multi-query view selection.

    Returns ``(selected, per_query_views)`` where ``selected`` contains
    every chosen view and ``per_query_views[i]`` names the views whose
    matches cover query ``i``.  Raises ``ValueError`` when the candidate
    pool cannot cover some query (impossible with the default pool) or
    when ``max_views`` is too small.
    """
    # View matches are the core layer's; reached only when a selection
    # actually runs, so importing this package stays below core.
    from repro.core.containment import _view_match_fn

    queries = list(queries)
    if candidates is None:
        candidates = candidate_views_from_workload(queries)
    elif not isinstance(candidates, ViewSet):
        candidates = ViewSet(candidates)

    # Coverage of each candidate over the combined element universe.
    coverage: Dict[str, Set[Element]] = {}
    universe: Set[Element] = set()
    for qi, query in enumerate(queries):
        view_match = _view_match_fn(query, candidates.definitions())
        edge_set = query.edge_set()
        universe.update((qi, edge) for edge in edge_set)
        for definition in candidates:
            match = view_match(query, definition)
            bucket = coverage.setdefault(definition.name, set())
            bucket.update((qi, edge) for edge in match.covered & edge_set)

    reachable: Set[Element] = set()
    for elements in coverage.values():
        reachable |= elements
    if reachable != universe:
        missing = universe - reachable
        raise ValueError(
            f"candidate pool cannot cover {len(missing)} workload edges, "
            f"e.g. {next(iter(missing))}"
        )

    chosen: List[str] = []
    covered: Set[Element] = set()
    while covered != universe:
        if max_views is not None and len(chosen) >= max_views:
            raise ValueError(
                f"workload not coverable within max_views={max_views}"
            )
        best = max(
            (name for name in coverage if name not in chosen),
            key=lambda name: len(coverage[name] - covered),
        )
        gain = coverage[best] - covered
        if not gain:  # pragma: no cover - guarded by reachability check
            break
        chosen.append(best)
        covered |= gain

    selected = candidates.subset(chosen)
    per_query: Dict[int, List[str]] = {qi: [] for qi in range(len(queries))}
    for name in chosen:
        for qi, _ in coverage[name]:
            if name not in per_query[qi]:
                per_query[qi].append(name)
    return selected, per_query
