"""Streaming (out-of-core) ingest: edge list -> snapshot directory.

The in-memory pipeline -- ``graph_from_edges`` then ``freeze`` then
``ShardedGraph`` -- holds the whole graph (and a copy per shard) in RAM,
so it dies at the machine's memory ceiling long before the billion-edge
datasets of conf_icde_FanWW14's Exp-3.  :func:`ingest_snapshot` replaces
it with a two-phase, bounded-memory build:

1. **Spill.**  Edges stream (never materialized) through a
   :class:`~repro.shard.partitioner.StreamingHashPartitioner`, which
   buckets them into per-shard spill files under a byte budget.  Node
   placement uses the same stable hash as the in-memory ``hash``
   strategy, so a streamed build and ``make_partition(..., "hash")``
   agree about every node's home.
2. **Build, one shard at a time.**  For each shard, its spill file is
   replayed into a throwaway :class:`~repro.graph.digraph.DataGraph`
   (own nodes first, then edges -- the node-table invariant
   ``ShardedGraph`` relies on), frozen, flat-encoded in process-private
   memory, sealed to ``shard-NNN.seg`` on disk, and *released* before
   the next shard is touched.  Peak RSS is therefore one shard's
   working set, not the graph's.

Once every shard is sealed, the boundary rows (local -> global ids,
bridge pairs) are computed from the sealed segments' node tables one
shard pair at a time -- the same
:func:`~repro.shard.sharded.boundary_stores` an in-memory
:class:`~repro.shard.sharded.ShardedGraph` uses -- and the directory is
committed through the same manifest writer as
:meth:`~repro.graph.snapshot.SnapshotStore.save`, so an ingested graph
reloads as a fully functional mmap-backed sharded graph, cut edges and
foreign predecessors included, without the edge set ever having been in
memory.
"""

from __future__ import annotations

import gc
import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.graph.compact import _new_token
from repro.graph.digraph import DataGraph
from repro.graph.flatbuf import FlatStore, encode_snapshot
from repro.graph.snapshot import (
    commit_manifest,
    shard_entry,
    sharded_manifest,
    snapshot_on_disk_bytes,
    write_directory,
)

if TYPE_CHECKING:
    from repro.shard.partitioner import StreamingHashPartitioner

log = logging.getLogger(__name__)


def _rss_bytes() -> int:
    """Resident set size via ``/proc/self/status`` (0 where absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


@dataclass
class IngestReport:
    """What :func:`ingest_snapshot` did, JSON-ready via :meth:`to_json`.

    ``peak_rss_bytes`` is the largest resident-set growth over the
    process baseline observed at shard boundaries -- the number the
    out-of-core benchmark asserts stays flat as the edge count grows.
    """

    out_dir: str
    edges: int = 0
    nodes: int = 0
    shards: int = 0
    cut_edges: int = 0
    spill_bytes: int = 0
    on_disk_bytes: int = 0
    peak_rss_bytes: int = 0
    seconds: float = 0.0
    shard_stats: List[Dict[str, int]] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "out_dir": self.out_dir,
            "edges": self.edges,
            "nodes": self.nodes,
            "shards": self.shards,
            "cut_edges": self.cut_edges,
            "spill_bytes": self.spill_bytes,
            "on_disk_bytes": self.on_disk_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "seconds": self.seconds,
            "shard_stats": self.shard_stats,
        }


def ingest_snapshot(
    edges: Iterable[Tuple[str, str]],
    out_dir,
    *,
    num_shards: int = 4,
    labeler: Optional[Callable[[str], Iterable[str]]] = None,
    budget_bytes: int = 64 << 20,
    max_edges: int = 0,
    overwrite: bool = False,
) -> IngestReport:
    """Stream ``edges`` into a sharded snapshot directory at ``out_dir``.

    ``edges`` is any ``(source, target)`` iterable -- feed it
    :func:`repro.graph.io.read_snap_edges` for SNAP downloads.  Node ids
    must be strings (tab/newline-free).  ``labeler(node) -> labels``
    optionally assigns labels (applied to ghosts too, so shard-local
    label buckets match an in-memory build).  ``budget_bytes`` caps the
    spill buffers; ``max_edges`` > 0 aborts longer streams with a
    ``ValueError``.  Duplicate edges in the stream are dropped exactly
    like an in-memory build drops them (the report and manifest count
    the deduplicated graph).  Returns an :class:`IngestReport`.

    The directory is valid for
    :meth:`~repro.graph.snapshot.SnapshotStore.load` the instant its
    ``manifest.json`` lands (written last); with ``overwrite=True`` an
    existing snapshot is replaced by a rename swap of a sibling temp
    directory, so concurrent readers never see a partial build.
    """
    report = write_directory(
        out_dir,
        lambda dirpath: _ingest_into(
            dirpath, edges, num_shards, labeler, budget_bytes, max_edges
        ),
        overwrite,
        tmp_prefix=".ingest-tmp-",
    )
    report.out_dir = os.fspath(out_dir)
    return report


def _ingest_into(
    dirpath: str,
    edges: Iterable[Tuple[str, str]],
    num_shards: int,
    labeler,
    budget_bytes: int,
    max_edges: int,
) -> IngestReport:
    # The shard layer sits above this package; reached only when an
    # ingest actually runs (see the layering note in ARCHITECTURE.md).
    from repro.shard.partitioner import StreamingHashPartitioner
    from repro.shard.sharded import boundary_stores

    start = time.perf_counter()
    baseline = _rss_bytes()
    peak = 0
    report = IngestReport(out_dir=dirpath, shards=num_shards)

    with tempfile.TemporaryDirectory(prefix="repro-ingest-spill-") as spill_dir:
        with StreamingHashPartitioner(
            num_shards, spill_dir, budget_bytes=budget_bytes
        ) as part:
            # -- phase 1: spill -----------------------------------------
            count = 0
            for source, target in edges:
                count += 1
                if max_edges and count > max_edges:
                    raise ValueError(
                        f"edge stream exceeds max_edges={max_edges}; "
                        "raise the cap or drop it for unbounded ingest"
                    )
                part.add(source, target)
            part.flush()
            peak = max(peak, _rss_bytes() - baseline)

            # -- phase 2: build one shard at a time ---------------------
            entries: List[dict] = []
            own_counts: List[int] = []
            for i in range(num_shards):
                entry, own, stats = _build_shard(dirpath, part, i, labeler)
                entries.append(entry)
                own_counts.append(own)
                # Deduplicated counts (the DataGraph drops repeats).
                report.edges += stats["edges"]
                report.cut_edges += stats["cut_edges"]
                report.shard_stats.append(stats)
                gc.collect()
                peak = max(peak, _rss_bytes() - baseline)
        report.spill_bytes = part.spill_bytes

    # -- phase 3: boundary rows, one shard pair at a time ---------------
    # Node tables are re-read from the sealed segments per pair and
    # dropped again, never memoized, so the peak stays a shard pair.
    def names_of(shard: int):
        store = FlatStore.open(os.path.join(dirpath, entries[shard]["segment"]))
        return pickle.loads(store.blob("nodes"))

    def metered(stores):
        nonlocal peak
        for store in stores:
            peak = max(peak, _rss_bytes() - baseline)
            yield store

    total_nodes = sum(own_counts)
    manifest = sharded_manifest(
        dirpath,
        entries,
        own_counts,
        metered(boundary_stores(names_of, own_counts)),
        graph={
            "nodes": total_nodes,
            "edges": report.edges,
            "snapshot_version": 0,
            "snapshot_token": _new_token(),
            "extends_token": None,
        },
        strategy="hash",
        edge_cut=report.cut_edges,
    )
    manifest["views"] = {}
    commit_manifest(dirpath, manifest)

    report.nodes = total_nodes
    report.on_disk_bytes = snapshot_on_disk_bytes(dirpath)
    report.peak_rss_bytes = max(peak, _rss_bytes() - baseline)
    report.seconds = time.perf_counter() - start
    log.info(
        "ingest: %d edges -> %d shards at %s (%d nodes, cut %d, "
        "spill %dB, peak RSS +%dB, %.2fs)",
        report.edges, num_shards, dirpath, report.nodes, report.cut_edges,
        report.spill_bytes, report.peak_rss_bytes, report.seconds,
    )
    return report


def _build_shard(
    dirpath: str, part: "StreamingHashPartitioner", shard: int, labeler
) -> Tuple[dict, int, Dict[str, int]]:
    """Replay shard ``shard``'s spill records into a sealed segment file.

    Two passes over the spill file keep the node-table invariant: pass 1
    registers every *owned* node (sources, shard-internal targets, and
    cross-edge targets announced by ``n`` records) so their compact ids
    all precede the ghosts that pass 2's edges create on the fly.
    """
    graph = DataGraph()
    own: Dict[str, None] = {}
    for kind, a, b in part.shard_records(shard):
        if kind == "e":
            own.setdefault(a)
            if part.shard_of(b) == shard:
                own.setdefault(b)
        else:
            own.setdefault(a)
    for node in own:
        graph.add_node(node, labels=labeler(node) if labeler else ())
    for kind, a, b in part.shard_records(shard):
        if kind == "e":
            graph.add_edge(a, b)
    if labeler is not None:
        for node in [n for n in graph.nodes() if n not in own]:
            graph.add_node(node, labels=labeler(node))

    frozen = graph.freeze()
    entry = shard_entry(f"shard-{shard:03d}.seg", frozen)
    segment_bytes = encode_snapshot(frozen, backend="bytes").save(
        os.path.join(dirpath, entry["segment"])
    )
    stats = {
        "shard": shard,
        "own_nodes": len(own),
        "nodes": frozen.num_nodes,
        "edges": frozen.num_edges,
        # Every edge into a ghost is a cut edge (and only those are).
        "cut_edges": sum(
            len(frozen.in_ids(ghost))
            for ghost in range(len(own), frozen.num_nodes)
        ),
        "segment_bytes": segment_bytes,
    }
    return entry, len(own), stats
