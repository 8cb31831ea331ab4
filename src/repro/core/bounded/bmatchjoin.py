"""BMatchJoin: answering bounded pattern queries using views (Section VI-A).

Identical in structure to MatchJoin with two bounded-specific twists:

* merged pairs come from *bounded* view extensions, whose match sets
  contain node pairs connected by paths (not necessarily edges); the
  auxiliary distance index ``I(V)`` maps every materialized pair to its
  actual distance in ``G``;
* a merged pair only enters ``Se`` when its ``I(V)`` distance respects
  the *query* edge's own bound ``fe(e)`` (a covering view edge may have
  a larger bound, so its extension can contain pairs that are too far
  apart for ``e``) -- this is the O(1)-per-pair distance check the
  paper describes for BMatchJoin.

The fixpoint afterwards is the same simulation-condition refinement as
MatchJoin -- literally: :func:`bounded_match_join` is an adapter over
:func:`repro.core.matchjoin.join_views` that supplies the bounded merge
step, for the ``O(|Qb||V(G)| + |V(G)|^2)`` bound of Theorem 9.

Like plain MatchJoin it runs in **snapshot id space**, over the
extensions of one snapshot (two snapshots' extensions are refused): the
rows are filtered through the *id-space* distance index the payloads
carry, and no node-key pair is touched until the final decode.  A query
edge whose bound dominates the covering view edge's bound
(``fe(e') <= fe(e)``) skips filtering entirely and adopts the stored
rows, which is the common case for promoted view suites.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable, Mapping, Tuple, Union

from repro.core.containment import Containment
from repro.core.matchjoin import join_views
from repro.graph.pattern import ANY, BoundedPattern, bound_le
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Extensions = Mapping[str, MaterializedView]


def _filter_bound(
    query: BoundedPattern, edge: PEdge, extension: MaterializedView, view_edge: PEdge
):
    """The bound the pairs of λ-image ``view_edge`` must be checked
    against for query ``edge``, or ``None`` when none can exceed it.

    No filter is needed when the query edge accepts any path (``*``),
    when the view is a simulation view (its pairs are data edges --
    distance exactly 1, and bounds are >= 1 by construction), or when
    the covering view edge's own bound is dominated by the query bound
    (every stored pair is within it a fortiori).
    """
    bound = query.bound(edge)
    if bound is ANY:
        return None
    pattern = extension.definition.pattern
    if not isinstance(pattern, BoundedPattern):
        return None
    return None if bound_le(pattern.bound(view_edge), bound) else bound


def bounded_match_join(
    query: BoundedPattern,
    containment: Containment,
    extensions: Union[Extensions, ViewSet],
    optimized: bool = True,
) -> MatchResult:
    """Evaluate ``Qb`` from bounded view extensions only (BMatchJoin).

    Mirrors :func:`repro.core.matchjoin.match_join`; see there for the
    parameter contract.  ``extensions`` must come from *bounded* view
    definitions so that the distance index is present (simulation views
    promoted to bound-1 edges also work: their pairs are edges, distance
    1).

    The kernel runs in the integer id space of the snapshot (a frozen
    :class:`~repro.graph.compact.CompactGraph` or a
    :class:`~repro.shard.sharded.ShardedGraph`) every referenced
    extension was materialized on, bound-filtering through the
    payloads' id-space distance index; extensions of two snapshots
    raise ``ValueError`` naming the views.
    """
    if not isinstance(query, BoundedPattern):
        raise TypeError(
            "bounded_match_join expects a BoundedPattern; use match_join "
            "for plain patterns"
        )
    return join_views(
        query, containment, extensions, optimized, partial(_filter_bound, query)
    )
