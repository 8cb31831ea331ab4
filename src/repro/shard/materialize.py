"""View materialization over a sharded graph.

Materializing a view catalog is the heavy, offline half of the paper's
workflow -- ``V(G)`` is computed once so that MatchJoin never touches
``G`` at query time (Theorem 1).  Over a
:class:`~repro.shard.sharded.ShardedGraph` each simulation view runs as
per-shard local fixpoints coordinated to the global fixpoint
(:mod:`repro.shard.psim`), and its per-shard match rows merge by
concatenation because shards own disjoint source-node sets.  Bounded
simulation does not decompose into per-shard fixpoints (a bounded path
may thread through several shards), so bounded views run the generic
engine over the composite read API -- every distance question answered
by the per-shard bounded BFS with ghost-distance stitching -- and carry
``I(V)`` in composite id space.

Both routes are what :func:`repro.views.view.materialize` takes on a
sharded graph (through :meth:`ShardedGraph.evaluate_ids`); the entry
points here name them for the shard layer.  The merged extension
carries a :class:`~repro.views.flatpack.FlatExtension` in the sharded
graph's *composite* id space, stamped with its composite
``snapshot_token`` -- so every extension materialized against the same
sharded graph shares one token and MatchJoin sweeps their id rows
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.shard.sharded import ShardedGraph
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView, ViewDefinition, materialize


def materialize_view(
    definition: ViewDefinition, sharded: ShardedGraph
) -> MaterializedView:
    """Evaluate one view on a sharded graph and build its extension."""
    return materialize(definition, sharded)


def parallel_materialize(
    views: ViewSet,
    sharded: ShardedGraph,
    names: Optional[Iterable[str]] = None,
) -> None:
    """Materialize (cache) extensions for the given views -- all
    definitions by default -- one view after another, each evaluated
    shard by shard (:meth:`ViewSet.materialize` on the sharded graph)."""
    views.materialize(sharded, names=list(names) if names is not None else None)
