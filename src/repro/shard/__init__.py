"""Sharded graph backend: partitioning, partial-evaluation matching and
parallel view materialization.

This subpackage reproduces, in-process, the distributed setting the
paper assumes around its algorithms (graphs too large for one machine,
views cached so queries never touch ``G``):

* :mod:`~repro.shard.partitioner` -- pluggable edge-cut strategies
  (``hash``, ``label``, ``bfs``) producing a :class:`Partition` with
  per-shard node sets and the cross-shard boundary table, plus
  :class:`StreamingHashPartitioner`, the spill-to-disk variant the
  out-of-core ingest pipeline uses to place edges without ever holding
  the edge set in memory;
* :mod:`~repro.shard.sharded` -- :class:`ShardedGraph`: per-shard
  frozen :class:`~repro.graph.compact.CompactGraph` snapshots plus
  cross-shard tables, a ``DataGraph``-compatible read API, and a
  composite integer-id space with its own snapshot token;
* :mod:`~repro.shard.psim` -- partial-evaluation maximum simulation:
  shard-local compact fixpoints under boundary assumptions, a
  coordinator exchanging invalidated boundary matches until the global
  fixpoint (equal to single-machine ``maximum_simulation``);
* :mod:`~repro.shard.materialize` -- per-shard parallel view
  materialization whose merged extensions carry the composite token,
  so the id-space MatchJoin fast path engages unchanged.
"""

from repro import _lazy_exports

_EXPORTS = {
    "PARTITIONERS": "repro.shard.partitioner",
    "PSimStats": "repro.shard.psim",
    "Partition": "repro.shard.partitioner",
    "SHARD_EXECUTORS": "repro.shard.psim",
    "ShardRunner": "repro.shard.psim",
    "ShardedGraph": "repro.shard.sharded",
    "StreamingHashPartitioner": "repro.shard.partitioner",
    "make_partition": "repro.shard.partitioner",
    "materialize_view": "repro.shard.materialize",
    "parallel_materialize": "repro.shard.materialize",
    "partial_max_simulation": "repro.shard.psim",
    "sharded_match": "repro.shard.psim",
    "sharded_match_with_ids": "repro.shard.psim",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
