"""Per-shard parallel view materialization.

Materializing a view catalog is the heavy, offline half of the paper's
workflow -- ``V(G)`` is computed once so that MatchJoin never touches
``G`` at query time (Theorem 1).  Over a
:class:`~repro.shard.sharded.ShardedGraph` that work parallelizes along
the shard axis: each view's simulation runs as per-shard local
fixpoints coordinated to the global fixpoint
(:mod:`repro.shard.psim`), and its per-shard match sets merge by
simple union because shards own disjoint source-node sets.

The merged extension carries a
:class:`~repro.views.flatpack.FlatExtension` in the sharded graph's
*composite* id space, stamped with its composite ``snapshot_token`` --
so every extension materialized against the same sharded graph shares
one token and MatchJoin sweeps their id rows unchanged.

Entry points:

* :func:`materialize_view` -- one definition, one extension
  (``repro.views.view.materialize`` with a say over the runner);
* :func:`parallel_materialize` -- a whole catalog through one shared
  :class:`~repro.shard.psim.ShardRunner`, so process pools are
  created once and the sharded snapshot ships to workers once for all
  views (the same ship-once discipline as ``repro.engine.executor``).

Both entry points accept *refreshed* sharded snapshots
(:meth:`ShardedGraph.refreshed`) unchanged: a refresh keeps composite
ids stable and mints a fresh composite token, so extensions
materialized afterwards coexist with re-stamped (``rebound``)
extensions of views the update stream never touched -- one token, id
space intact.
"""

from __future__ import annotations

import logging
from typing import Iterable, Optional

from repro.shard.psim import (
    ShardRunner,
    _drive,
    _Evaluation,
    sharded_match_with_ids,
)
from repro.shard.sharded import ShardedGraph
from repro.views.storage import ViewSet
from repro.views.view import (
    MaterializedView,
    ViewDefinition,
    materialize,
    snapshot_extension,
)

log = logging.getLogger(__name__)


def materialize_view(
    definition: ViewDefinition,
    sharded: ShardedGraph,
    runner: Optional[ShardRunner] = None,
    executor: str = "serial",
    workers: Optional[int] = None,
) -> MaterializedView:
    """Evaluate one view on a sharded graph and build its extension.

    Simulation views run the partial-evaluation fixpoint shard-parallel.
    Bounded simulation does not decompose into per-shard fixpoints (a
    bounded path may thread through several shards), so bounded views
    run the generic engine over the composite read API -- every
    distance question answered by the per-shard bounded BFS with
    ghost-distance stitching -- and carry ``I(V)`` in composite id
    space, so BMatchJoin bound-filters their rows exactly as on
    single-snapshot ones.
    """
    if definition.is_bounded:
        return materialize(definition, sharded)
    evaluated = sharded_match_with_ids(
        definition.pattern, sharded, executor=executor, workers=workers, runner=runner
    )
    return snapshot_extension(definition, sharded, *evaluated)


def parallel_materialize(
    views: ViewSet,
    sharded: ShardedGraph,
    names: Optional[Iterable[str]] = None,
    executor: str = "process",
    workers: Optional[int] = None,
    runner: Optional[ShardRunner] = None,
) -> None:
    """Materialize (cache) extensions for the given views shard-parallel.

    Evaluates each view on the sharded graph and installs ``V(G)`` via
    :meth:`ViewSet.set_extension` (bumping the catalog version per
    view, like :meth:`ViewSet.materialize`); defaults to all
    definitions.  One :class:`ShardRunner` serves the whole batch, and
    all simulation views advance through *shared* task waves -- one
    pool round-trip per wave regardless of view count, with every
    worker kept busy across patterns.  Pass ``runner`` to reuse a warm
    pool across calls, or let ``executor`` / ``workers`` configure a
    fresh one (``"serial"`` degrades to plain in-process evaluation).
    """
    chosen = list(names) if names is not None else views.names()
    owned = runner is None
    if owned:
        runner = ShardRunner(sharded, executor=executor, workers=workers)
    log.debug(
        "shard-parallel materialize: %d view(s) over %d shards (%s)",
        len(chosen), sharded.num_shards, executor,
    )
    try:
        # All simulation views advance through shared waves: one pool
        # round-trip per wave for the whole batch, and every worker
        # stays busy across patterns.  Bounded views take the generic
        # engine individually (they do not decompose by shard).
        evaluations: dict = {}
        for name in chosen:
            definition = views.definition(name)
            if not definition.is_bounded:
                evaluations[name] = _Evaluation(
                    definition.pattern, sharded, runner.new_session()
                )
        _drive(list(evaluations.values()), runner)
        for name in chosen:
            # Popped, so each view's kernel rows are dropped as soon as
            # its payload is built.
            definition = views.definition(name)
            evaluation = evaluations.pop(name, None)
            if evaluation is None:
                extension = materialize(definition, sharded)
            else:
                extension = snapshot_extension(
                    definition, sharded, *evaluation.outcome
                )
            views.set_extension(extension)
    finally:
        if owned:
            runner.close()
