"""Sharded graph backend: hash placement and partial-evaluation
matching.

This subpackage reproduces, in-process, the distributed setting the
paper assumes around its algorithms (graphs too large for one machine,
views cached so queries never touch ``G``).  A sharded graph comes from
one place: :func:`repro.graph.ingest.ingest_snapshot` (``repro
ingest``) streams an edge list into a sharded snapshot directory, and
:meth:`repro.graph.snapshot.SnapshotStore.load` attaches it.

* :mod:`~repro.shard.partitioner` -- the one placement rule (a stable
  hash) and :class:`StreamingHashPartitioner`, which spills an edge
  stream into per-shard runs without ever holding the edge set in
  memory;
* :mod:`~repro.shard.sharded` -- :class:`ShardedGraph`: per-shard
  frozen :class:`~repro.graph.compact.CompactGraph` snapshots plus
  cross-shard tables, a ``DataGraph``-compatible read API, and a
  composite integer-id space with its own snapshot token;
* :mod:`~repro.shard.psim` -- partial-evaluation maximum simulation:
  shard-local compact fixpoints under boundary assumptions, a
  coordinator exchanging invalidated boundary matches until the global
  fixpoint (equal to single-machine ``maximum_simulation``).

Views materialize on a sharded graph through
:func:`repro.views.view.materialize` / :meth:`ViewSet.materialize`
unchanged: their extensions carry the composite token, so the id-space
MatchJoin fast path engages as on one snapshot.
"""

from repro import _lazy_exports

_EXPORTS = {
    "PSimStats": "repro.shard.psim",
    "ShardedGraph": "repro.shard.sharded",
    "StreamingHashPartitioner": "repro.shard.partitioner",
    "partial_max_simulation": "repro.shard.psim",
    "sharded_match": "repro.shard.psim",
    "sharded_match_with_ids": "repro.shard.psim",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
