"""``cold_boot``: streaming ingest to a sharded on-disk snapshot, then one
fresh CLI process per op that attaches it and answers one query.

Set-up is ``ingest_snapshot`` over an edge-list file; an op is
``python -m repro snapshot load DIR --query Q`` timed from spawn to exit:
interpreter start, import, mmap attach and one sharded direct match.
"""

from __future__ import annotations

import re
import resource
import subprocess
import sys
import zlib
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

from repro.engine import QueryEngine
from repro.graph.digraph import DataGraph
from repro.graph.ingest import ingest_snapshot
from repro.graph.io import read_snap_edges, write_pattern
from repro.graph.pattern import Pattern
from repro.graph.snapshot import SnapshotStore
from repro.views.storage import ViewSet

from perf.harness import Config, Samples, bytes_backend, src_env
from perf.oracle import Oracle, pairs

EDGES = 100_000
LABELS = 8
SHARDS = 4
BUDGET_BYTES = 16 << 20
PATTERN_LABELS = [(0, 1, 2), (3, 4, 5), (6, 7, 0)]
BOOT_TIMEOUT_S = 120.0
PAIRS_LINE = re.compile(r"^query: (\d+) pairs via ", re.MULTILINE)


def labeler(node: str) -> Tuple[str, ...]:
    return (f"l{zlib.crc32(node.encode()) % LABELS}",)


def edge_stream(num_edges: int, num_nodes: int, seed: int):
    """The ``bench_fig8d`` LCG edge stream, seeded."""
    state = seed or 1
    for _ in range(num_edges):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield f"n{(state >> 33) % num_nodes}", f"n{(state >> 3) % num_nodes}"


def chain(labels) -> Pattern:
    pattern = Pattern()
    for position, label in enumerate(labels):
        pattern.add_node(f"p{position}", f"l{label}")
    for position in range(len(labels) - 1):
        pattern.add_edge(f"p{position}", f"p{position + 1}")
    return pattern


class ColdBoot:
    name = "cold_boot"
    pass_ref_s = 1.4
    #: Process start-up is the noisiest op here and a pass is only three
    #: boots, so the per-pattern median gets four of them.
    min_passes = 4
    ops_per_pass = len(PATTERN_LABELS)

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        self.snapshot_dir = cfg.work_dir / "snapshot"
        self.edges_path = cfg.work_dir / "edges.txt"
        self.patterns = [chain(labels) for labels in PATTERN_LABELS]
        self.pattern_paths = [cfg.work_dir / f"q{i}.json" for i in range(len(self.patterns))]
        self.expected: List[dict] = []
        self.reports: List[Tuple[float, object]] = []
        self.env = src_env(cfg.work_dir)

    def samples(self) -> Samples:
        return Samples(self.ops_per_pass, replicas=True)

    # -- harness work --------------------------------------------------
    def generate(self) -> None:
        num_edges = EDGES // 12 if self.cfg.tiny else EDGES
        stream_seed = zlib.crc32(f"cold_boot:{self.cfg.seed}".encode()) | 1 << 32
        self.edges = list(edge_stream(num_edges, num_edges // 2, stream_seed))
        self.state = f"lcg:{stream_seed}:{num_edges}:{LABELS}"
        with open(self.edges_path, "w", encoding="ascii") as handle:
            for source, target in self.edges:
                handle.write(f"{source} {target}\n")
        for pattern, path in zip(self.patterns, self.pattern_paths):
            write_pattern(pattern, path)

    def oracle(self) -> None:
        # The reference graph is built here, edge by edge, not by any
        # reader or ingest code the workload then times.
        graph = DataGraph()
        for source, target in self.edges:
            for node in (source, target):
                if node not in graph:
                    graph.add_node(node, labels=labeler(node))
            graph.add_edge(source, target)
        oracle = Oracle(self.cfg.out_dir / "oracle-cache")
        self.expected = [
            oracle.expected(self.state, pattern, graph) for pattern in self.patterns
        ]
        self.graph = graph
        del self.edges

    # -- the program's set-up ------------------------------------------
    def setup(self, clock) -> Tuple[float, float]:
        factor, raw, report = clock.slice(
            lambda: ingest_snapshot(
                read_snap_edges(self.edges_path),
                self.snapshot_dir,
                num_shards=SHARDS,
                labeler=labeler,
                budget_bytes=BUDGET_BYTES,
                overwrite=True,
            )
        )
        self.reports.append((raw * factor, report))
        return raw * factor, raw

    def warm(self, clock) -> None:
        """Full edge matches, once per pattern, from an in-process load of
        what was ingested (the CLI prints pair counts only); then one
        untimed boot so the snapshot files are in the page cache."""
        engine = QueryEngine(snapshot_path=str(self.snapshot_dir), answer_cache_size=0)
        for pattern, expected in zip(self.patterns, self.expected):
            if engine.answer(pattern).edge_matches != expected:
                raise RuntimeError("ingested snapshot answers differ from the oracle")
        self._boot(0)

    # -- the measured phase --------------------------------------------
    def sequence(self, rng) -> None:
        self.order = list(range(len(self.patterns)))
        rng.shuffle(self.order)

    def run_pass(self, clock, samples, tracer) -> None:
        for index in self.order:
            factor, raw, (begin, end, found) = clock.slice(lambda: self._boot(index))
            samples.add_slice(factor, raw, [end - begin])
            if found != pairs(self.expected[index]):
                samples.failed += 1
            if tracer is not None:
                tracer.add("cli.boot", begin, end, op=index)

    def _boot(self, index: int) -> Tuple[float, float, int]:
        """One fresh CLI process: ``(spawn, exit, pairs it printed)``;
        ``-1`` pairs when it failed or printed none."""
        begin = perf_counter()
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "snapshot", "load",
                str(self.snapshot_dir), "--query", str(self.pattern_paths[index]),
            ],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=BOOT_TIMEOUT_S,
        )
        end = perf_counter()
        found = PAIRS_LINE.search(done.stdout)
        if done.returncode or found is None:
            return begin, end, -1
        return begin, end, int(found.group(1))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- per-layer attribution (traced run only) ------------------------
    def layers(self, clock) -> Dict[str, float]:
        report = self.reports[-1][1]
        ingest_s = median([seconds for seconds, _ in self.reports])

        def timed_ms(work) -> Tuple[float, object]:
            factor, raw, value = clock.slice(work)
            return raw * factor * 1e3, value

        clock.sample()
        load_ms, loaded = timed_ms(lambda: SnapshotStore.load(self.snapshot_dir))
        engine = QueryEngine(ViewSet(), snapshot_path=loaded, answer_cache_size=0)
        match_ms = [
            timed_ms(lambda: engine.answer(pattern))[0]
            for pattern in self.patterns
            for _ in range(3)
        ]
        compact_dir = self.cfg.work_dir / "compact"
        frozen = self.graph.freeze()
        with bytes_backend():
            save_ms, _ = timed_ms(lambda: SnapshotStore.save(compact_dir, frozen))
        compact_load_ms, _ = timed_ms(lambda: SnapshotStore.load(compact_dir))
        import_ms = [
            timed_ms(
                lambda: subprocess.run(
                    [sys.executable, "-c", "import repro.cli"],
                    env=self.env, check=True, timeout=BOOT_TIMEOUT_S,
                )
            )[0]
            for _ in range(3)
        ]
        return {
            "graph.ingest_s": ingest_s,
            "graph.ingest_edges_per_s": report.edges / ingest_s,
            "graph.ingest_peak_rss_mb": report.peak_rss_bytes / (1 << 20),
            "graph.snapshot_disk_bytes_per_edge": report.on_disk_bytes / report.edges,
            "graph.snapshot_save_ms": save_ms,
            "graph.snapshot_load_ms": compact_load_ms,
            "shard.load_ms": load_ms,
            "shard.match_ms_p50": median(match_ms),
            "shard.cut_fraction": report.cut_edges / report.edges,
            "cli.import_ms": median(import_ms),
        }

    def close(self) -> None:
        pass
