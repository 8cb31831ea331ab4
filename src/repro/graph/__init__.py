"""Graph substrate: data graphs, patterns, search conditions and SCC tools.

This subpackage provides everything the matching algorithms stand on:

* :class:`~repro.graph.digraph.DataGraph` -- a directed graph whose nodes
  carry label sets and attribute dictionaries (Section II-A of the paper),
  with an incrementally-maintained label index and a mutation version
  counter.
* :class:`~repro.graph.compact.CompactGraph` -- the immutable integer-id
  snapshot produced by :meth:`DataGraph.freeze`, the read-optimized
  backend under batch serving.
* :mod:`~repro.graph.conditions` -- node search conditions ``fv`` (plain
  labels or Boolean predicates as in Fig. 7) together with a sound
  implication test used by view-match computation.
* :class:`~repro.graph.pattern.Pattern` and
  :class:`~repro.graph.pattern.BoundedPattern` -- graph pattern queries
  ``Qs`` and bounded pattern queries ``Qb``.
* :mod:`~repro.graph.scc` -- Tarjan strongly connected components and the
  edge *ranks* driving the bottom-up MatchJoin optimization (Section III).
* :mod:`~repro.graph.io` -- serialization, including a SNAP edge-list
  reader for users who have the original datasets.
* :mod:`~repro.graph.flatbuf` -- the flat-buffer store a snapshot's
  tables live in: in process memory, or versioned, checksummed on-disk
  segments attached read-only via ``mmap``.
* :mod:`~repro.graph.snapshot` -- persistent snapshot directories:
  :class:`~repro.graph.snapshot.SnapshotStore` saves and reloads whole
  graphs (and their view catalogs) without rebuilding.
* :mod:`~repro.graph.ingest` -- streaming out-of-core ingest: build a
  sharded snapshot from an edge list of any size under a flat memory
  ceiling.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ANY": "repro.graph.pattern",
    "AttributeCondition": "repro.graph.conditions",
    "BoundedPattern": "repro.graph.pattern",
    "CompactGraph": "repro.graph.compact",
    "Condition": "repro.graph.conditions",
    "DataGraph": "repro.graph.digraph",
    "FlatStore": "repro.graph.flatbuf",
    "IngestReport": "repro.graph.ingest",
    "Label": "repro.graph.conditions",
    "LoadedSnapshot": "repro.graph.snapshot",
    "P": "repro.graph.conditions",
    "Pattern": "repro.graph.pattern",
    "SegmentFormatError": "repro.graph.flatbuf",
    "SnapshotError": "repro.graph.snapshot",
    "SnapshotStore": "repro.graph.snapshot",
    "TrueCondition": "repro.graph.conditions",
    "implies": "repro.graph.conditions",
    "ingest_snapshot": "repro.graph.ingest",
    "verify_segment_file": "repro.graph.flatbuf",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
