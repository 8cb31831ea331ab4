"""Hash placement for the sharded backend.

A sharded graph splits its node set into ``k`` shards, and each shard
owns the *full out-adjacency* of its nodes, so a shard-local fixpoint
only ever lacks knowledge about the match status of its ghosts --
exactly the assumptions the coordinator in :mod:`repro.shard.psim`
refines.  There is one placement rule: a node lives in shard
``_stable_hash(node) % k``.  :class:`StreamingHashPartitioner` applies
it to an edge stream, spilling per-shard runs to disk, and is the only
way shards are built (:func:`repro.graph.ingest.ingest_snapshot`).
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Hashable, Iterator, List, Optional, Tuple, Union

Node = Hashable


def _stable_hash(node: Node) -> int:
    """A process-independent hash (``hash(str)`` is salted per process,
    and every process must agree about node placement)."""
    return zlib.crc32(repr(node).encode("utf-8"))


class StreamingHashPartitioner:
    """Hash-partition an edge *stream* into per-shard spill files.

    It never holds the graph: edges arrive one at a time via
    :meth:`add`, are routed by :func:`_stable_hash`, and are appended to
    line-oriented spill files -- one per shard -- under a byte budget:
    per-shard write buffers are flushed to disk whenever their combined
    size exceeds ``budget_bytes``, so resident memory stays flat no
    matter how many edges flow through.

    Two record kinds land in the spill files (tab-separated lines):

    * ``e <source> <target>`` -- an edge, spilled to the *source's* home
      shard (shards own the full out-adjacency of their nodes);
    * ``n <target>`` -- for a cross-shard edge only: tells the target's
      home shard the node exists even if it never appears as a source
      there (so isolated-in-their-shard targets are still owned).

    Use as a context manager; iterate :meth:`shard_records` after all
    edges are added (it flushes first).
    Node ids must be strings without tabs or newlines (edge-list inputs
    always satisfy this); anything else cannot be spilled losslessly.
    """

    def __init__(
        self,
        num_shards: int,
        spill_dir: Union[str, Path],
        budget_bytes: int = 64 << 20,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.budget_bytes = max(1, budget_bytes)
        self._dir = Path(spill_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._shard_paths = [
            self._dir / f"shard-{i:03d}.spill" for i in range(num_shards)
        ]
        self._buffers: List[List[str]] = [[] for _ in range(num_shards)]
        self._buffered = 0
        self.edges = 0
        self.cut_edges = 0
        self.spill_bytes = 0
        self._closed = False

    # -- routing -------------------------------------------------------
    def shard_of(self, node: Node) -> int:
        """Home shard of ``node``."""
        return _stable_hash(node) % self.num_shards

    @staticmethod
    def _check_key(node: str) -> str:
        if "\t" in node or "\n" in node or "\r" in node:
            raise ValueError(
                f"node id {node!r} contains a tab/newline; spill records "
                "are tab-separated lines and cannot hold it"
            )
        return node

    def add(self, source: str, target: str) -> None:
        """Route one edge to its spill files (flushing on budget)."""
        source = self._check_key(source)
        target = self._check_key(target)
        home = self.shard_of(source)
        record = f"e\t{source}\t{target}\n"
        self._buffers[home].append(record)
        self._buffered += len(record)
        self.edges += 1
        away = self.shard_of(target)
        if away != home:
            self.cut_edges += 1
            presence = f"n\t{target}\n"
            self._buffers[away].append(presence)
            self._buffered += len(presence)
        if self._buffered >= self.budget_bytes:
            self.flush()

    def add_edges(self, edges) -> None:
        """Consume an edge iterable (never materialized)."""
        for source, target in edges:
            self.add(source, target)

    # -- spilling ------------------------------------------------------
    def flush(self) -> None:
        """Append every buffer to its spill file and drop it."""
        for i, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            chunk = "".join(buffer)
            with open(self._shard_paths[i], "a", encoding="utf-8") as handle:
                handle.write(chunk)
            self.spill_bytes += len(chunk)
            self._buffers[i] = []
        self._buffered = 0

    def shard_records(self, shard: int) -> Iterator[Tuple[str, str, Optional[str]]]:
        """Stream shard ``shard``'s spill records as ``(kind, a, b)``
        tuples (``("e", source, target)`` or ``("n", node, None)``), in
        spill order."""
        self.flush()
        path = self._shard_paths[shard]
        if not path.exists():
            return
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                parts = line.rstrip("\n").split("\t")
                if parts[0] == "e":
                    yield ("e", parts[1], parts[2])
                else:
                    yield ("n", parts[1], None)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush buffers and delete every spill file."""
        if self._closed:
            return
        self._buffers = [[] for _ in range(self.num_shards)]
        self._buffered = 0
        for path in self._shard_paths:
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._closed = True

    def __enter__(self) -> "StreamingHashPartitioner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamingHashPartitioner(shards={self.num_shards}, "
            f"edges={self.edges}, cut={self.cut_edges}, "
            f"spilled={self.spill_bytes}B)"
        )
