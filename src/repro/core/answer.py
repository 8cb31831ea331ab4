"""End-to-end pipeline: select views, check containment, MatchJoin.

:func:`answer_with_views` is the "query A" of Section II-B made
concrete: given a (bounded) pattern query and a :class:`ViewSet`, it

1. selects views via ``contain`` / ``minimal`` / ``minimum`` (choosing
   the bounded variants automatically),
2. verifies ``Q ⊑ V`` (raising :class:`NotContainedError` otherwise,
   since by Theorem 1 no equivalent view-only query exists),
3. materializes any missing extension, and any extension of another
   snapshot than the graph's, when a data graph is supplied (a
   convenience -- in production the cache is maintained offline),
4. runs (B)MatchJoin on the extensions only.

The returned :class:`Answer` carries the result plus the provenance the
paper's experiments report: which views were used, and the total
extension size that the evaluation touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.containment import SELECTIONS, Containment, selector
from repro.core.matchjoin import match_join
from repro.errors import NotContainedError, NotMaterializedError
from repro.graph.digraph import DataGraph
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView


@dataclass
class Answer:
    """Result of answering a query using views, with provenance."""

    result: MatchResult
    containment: Containment
    views_used: Tuple[str, ...]
    extension_size: int

    def __bool__(self) -> bool:
        return bool(self.result)


def answer_with_views(
    query: Pattern,
    views: ViewSet,
    graph: Optional[DataGraph] = None,
    selection: str = "minimal",
    optimized: bool = True,
) -> Answer:
    """Answer ``query`` using only the views in ``views``.

    Parameters
    ----------
    query:
        A :class:`Pattern` or :class:`BoundedPattern`.
    views:
        The view cache.  Extensions for the selected views must already
        be materialized unless ``graph`` is given.
    graph:
        Optional data graph used *only* to materialize extensions that
        are missing or were materialized on another snapshot (see
        :func:`extensions_on`); the evaluation itself never touches it.
    selection:
        ``"all"`` (use every covering view), ``"minimal"`` (Theorem 5)
        or ``"minimum"`` (greedy, Theorem 6).
    optimized:
        Forwarded to (B)MatchJoin's fixpoint engine.

    Raises
    ------
    NotContainedError
        When ``Q ⋢ V`` -- per Theorem 1 the query cannot be answered
        using these views.  (See :mod:`repro.core.rewriting` for the
        maximally-contained fallback.)
    NotMaterializedError
        When a selected view has no extension and no ``graph`` was
        given to materialize it from.
    """
    if selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection {selection!r}; expected one of "
            f"{sorted(SELECTIONS)}"
        )
    bounded = isinstance(query, BoundedPattern) or any(
        d.is_bounded for d in views
    )
    select = selector(selection, bounded)
    containment = select(query, views)
    if not containment.holds:
        raise NotContainedError(containment.uncovered)

    needed = containment.views_used()
    extensions = extensions_on(views, needed, graph)

    if bounded:
        bounded_query = (
            query if isinstance(query, BoundedPattern) else query.bounded()
        )
        result = bounded_match_join(
            bounded_query, containment, extensions, optimized=optimized
        )
    else:
        result = match_join(query, containment, extensions, optimized=optimized)
    return Answer(
        result=result,
        containment=containment,
        views_used=needed,
        extension_size=sum(ext.size for ext in extensions.values()),
    )


def extensions_on(
    views: ViewSet, names: Iterable[str], graph: Optional[DataGraph]
) -> Dict[str, MaterializedView]:
    """The extensions of views ``names`` that answer for ``graph``.

    With a ``graph``, every view whose extension is missing or was
    materialized on another snapshot than ``graph.freeze()`` (the graph
    changed since) is materialized on it first, so the extensions are
    ``V(G)`` of the one graph Theorem 1 speaks of.  Without one, the
    cached extensions are taken as they are, and a missing one raises
    :class:`NotMaterializedError`.
    """
    names = list(names)
    if graph is None:
        missing = [name for name in names if not views.is_materialized(name)]
        if missing:
            raise NotMaterializedError(
                f"extensions missing for views {missing!r} and no graph "
                "was given to materialize them from"
            )
    else:
        token = graph.freeze().snapshot_token
        stale = [
            name
            for name in names
            if not views.is_materialized(name)
            or views.extension(name).compact.token != token
        ]
        if stale:
            views.materialize(graph, names=stale)
    return {name: views.extension(name) for name in names}
