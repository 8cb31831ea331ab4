"""``serve_mixed``: ``python -m repro serve`` as a subprocess, driven over
JSON-lines TCP by two closed-loop connections.

Connection A sends only ``query``; connection B sends ``query`` with an
``update`` in every ``UPDATE_EVERY``-th slot.  Updates walk through fixed
edge batches, each applied then reverted (``+D0, -D0, +D1, -D1``), so
every pass starts from the same graph and an expected answer exists per
(query, graph state); a response's epoch names its state.
"""

from __future__ import annotations

import json
import random
import socket
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.datasets import amazon_graph, amazon_views, query_from_views
from repro.engine import QueryEngine
from repro.graph.io import pattern_from_json, pattern_to_json, write_graph
from repro.views.io import write_viewset
from repro.views.maintenance import Delta, IncrementalViewSet
from repro.views.storage import ViewSet

from perf.calibrate import percentile
from perf.harness import Config, Samples, p50_tail, src_env
from perf.oracle import Oracle, graph_digest

DATASET_SEED = 11
QUERY_SIZES = [
    (4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (5, 8), (6, 6), (6, 7),
    (6, 8), (6, 9), (7, 7), (7, 8), (7, 10), (8, 8), (8, 10), (8, 12),
]
QUERY_SEEDS = range(16)
#: Answers above this many pairs are mostly JSON encoding on the wire.
MAX_PAIRS = 2_500
#: Which views a batch touches sets what every miss after it costs (40%
#: in throughput between batches), so the batches are part of the
#: workload like the dataset; the seed orders the requests around them.
BATCHES = 2
BATCH_EDGES = 8
UPDATE_EVERY = 24
SLICE_REQUESTS = 32  # per connection: ~0.3 s a slice
BOOT_TIMEOUT_S = 120.0


def decode_edge_matches(result: dict) -> Dict[str, frozenset]:
    """A response's ``edge_matches`` with JSON lists back as tuples."""
    def node(value):
        return tuple(node(v) for v in value) if isinstance(value, list) else value

    return {
        key: frozenset((node(u), node(v)) for u, v in matched)
        for key, matched in result["edge_matches"].items()
    }


def wire_form(answer) -> Dict[str, frozenset]:
    """An oracle answer keyed the way the protocol names pattern edges."""
    return {
        f"{edge[0]}->{edge[1]}": frozenset(matched)
        for edge, matched in answer.items()
    }


class Server:
    """One ``repro serve`` subprocess and two connections to it."""

    def __init__(self, graph: Path, views: Path, work_dir: Path) -> None:
        self.stderr_path = work_dir / "serve.stderr"
        with open(self.stderr_path, "ab") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--graph", str(graph), "--views", str(views),
                    "--port", "0", "--max-inflight", "2", "--log-level", "warning",
                ],
                env=src_env(work_dir),
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        self.files: List = []
        try:
            port = self._await_port()
            for _ in range(2):
                sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.files.append(sock.makefile("rwb"))
                sock.close()  # the file object keeps the connection
            if not self.call(0, {"op": "ping"}).get("pong"):
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.close()
            raise

    def _await_port(self) -> int:
        timer = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("serving "):
                    address = line.split(" on ", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        finally:
            timer.cancel()
        raise RuntimeError(
            f"server exited with {self.proc.wait()} before serving: "
            + self.stderr_path.read_text(errors="replace")[-2000:]
        )

    def exchange(self, conn: int, request: bytes) -> bytes:
        handle = self.files[conn]
        handle.write(request)
        handle.flush()
        return handle.readline()

    def call(self, conn: int, request: dict) -> dict:
        return json.loads(self.exchange(conn, json.dumps(request).encode() + b"\n"))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        for handle in self.files:
            try:
                handle.close()
            except OSError:
                pass
        self.files = []
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class ServeMixed:
    name = "serve_mixed"
    min_passes = 3
    pass_ref_s = 0.8
    ops_per_pass = 2 * UPDATE_EVERY * 2 * BATCHES

    def __init__(self, cfg: Config) -> None:
        self.cfg = cfg
        self.server: Optional[Server] = None
        self.queries: list = []
        self.requests: List[bytes] = []
        self.updates: List[bytes] = []
        self.expected: Dict[Tuple[int, int], Dict[str, frozenset]] = {}
        self.records: List[dict] = []
        self.boots: List[float] = []

    def samples(self) -> Samples:
        # The top 1 % of latencies is a cliff: the 8-12 requests per run
        # that stall 100-170 ms behind an epoch swap.  p99 lands on its
        # edge (47 ms one run, 77 ms the next); p95 lies inside the
        # post-update re-evaluations the tail is meant to follow.
        return Samples(self.ops_per_pass, replicas=False, tail_cap=95.0)

    # -- harness work --------------------------------------------------
    def generate(self) -> None:
        scale = 0.08 if self.cfg.tiny else 1.0
        self.graph = amazon_graph(
            int(30_000 * scale), int(90_000 * scale), seed=DATASET_SEED
        )
        self.graph_path = self.cfg.work_dir / "graph.json"
        self.views_path = self.cfg.work_dir / "views.json"
        write_graph(self.graph, self.graph_path)
        write_viewset(amazon_views(), self.views_path)
        rng = random.Random("serve_mixed-batches")
        nodes = list(self.graph.nodes())
        self.batches: List[List[tuple]] = []
        taken = set()
        for _ in range(BATCHES):
            batch = []
            while len(batch) < BATCH_EDGES:
                source, target = rng.sample(nodes, 2)
                if (source, target) in taken or self.graph.has_edge(source, target):
                    continue
                taken.add((source, target))
                batch.append((source, target))
            self.batches.append(batch)
        for batch in self.batches:
            for sign in "+-":
                ops = [[sign, source, target] for source, target in batch]
                self.updates.append(
                    json.dumps({"op": "update", "ops": ops}).encode() + b"\n"
                )

    def oracle(self) -> None:
        oracle = Oracle(self.cfg.out_dir / "oracle-cache")
        base = graph_digest(self.graph)
        views = amazon_views()
        for index, (num_nodes, num_edges) in enumerate(QUERY_SIZES):
            query, answer = oracle.pick(
                base,
                self.graph,
                (
                    query_from_views(views, num_nodes, num_edges, seed=100 * index + seed)
                    for seed in QUERY_SEEDS
                ),
                accept=lambda size: 0 < size <= MAX_PAIRS,
            )
            self.queries.append(query)
            self.expected[index, 0] = wire_form(answer)
        # A private copy takes each batch in turn; the program only ever
        # sees the files written above.
        private = self.graph.copy()
        for number, batch in enumerate(self.batches, start=1):
            for source, target in batch:
                private.add_edge(source, target)
            state = f"{base}+{sorted(batch)!r}"
            for index, query in enumerate(self.queries):
                self.expected[index, number] = wire_form(
                    oracle.expected(state, query, private)
                )
            for source, target in batch:
                private.remove_edge(source, target)
        self.requests = [
            json.dumps({"op": "query", "pattern": pattern_to_json(q)}).encode() + b"\n"
            for q in self.queries
        ]

    def sequence(self, rng) -> None:
        """Per connection, one pass of ``(kind, index)`` slots: rounds of
        every query once, each round in its own seeded order, so any
        window between two updates asks for every query about equally
        often; on connection B an update takes each ``UPDATE_EVERY``-th
        slot."""
        rounds = UPDATE_EVERY * 2 * BATCHES // len(self.queries)
        self.schedules = []
        for conn in range(2):
            slots = []
            for _ in range(rounds):
                order = list(range(len(self.queries)))
                rng.shuffle(order)
                slots += [("query", index) for index in order]
            if conn == 1:
                for number in range(2 * BATCHES):
                    slots[(number + 1) * UPDATE_EVERY - 1] = ("update", number)
            self.schedules.append(slots)

    # -- the program's set-up ------------------------------------------
    def setup(self, clock) -> Tuple[float, float]:
        """Spawn -> ``serving`` line -> connected -> first ``ping``."""
        self.close()
        clock.sample()
        factor, raw, self.server = clock.slice(
            lambda: Server(self.graph_path, self.views_path, self.cfg.work_dir)
        )
        self.boots.append(raw * factor)
        return raw * factor, raw

    def warm(self, clock) -> None:
        """One untimed pass, so every measured pass starts from the cache
        state the previous pass left."""
        self.run_pass(clock, self.samples(), None)
        self.records = []

    # -- the measured phase --------------------------------------------
    def run_pass(self, clock, samples, tracer) -> None:
        for start in range(0, len(self.schedules[0]), SLICE_REQUESTS):
            chunks = [slots[start:start + SLICE_REQUESTS] for slots in self.schedules]
            factor, raw, out = clock.slice(lambda: self._run_slice(chunks))
            samples.add_slice(factor, raw, [end - begin for _, _, begin, end, _ in out])
            for kind, index, begin, end, line in out:
                if not self._check(kind, index, begin, end, line, factor, tracer):
                    samples.failed += 1

    def _run_slice(self, chunks) -> List[tuple]:
        """Both connections send their chunk, each request after the
        previous reply; returns ``(kind, index, begin, end, reply)``."""
        out: List[List[tuple]] = [[], []]
        errors: List[OSError] = []

        def client(conn: int) -> None:
            try:
                for kind, index in chunks[conn]:
                    request = (self.requests if kind == "query" else self.updates)[index]
                    begin = perf_counter()
                    line = self.server.exchange(conn, request)
                    out[conn].append((kind, index, begin, perf_counter(), line))
            except OSError as err:  # the server went away or stopped answering
                errors.append(err)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return out[0] + out[1]

    def _check(self, kind, index, begin, end, line, factor, tracer) -> bool:
        """Verify one reply against the oracle and keep its record."""
        try:
            reply = json.loads(line)
        except ValueError:
            return False
        record = {
            "kind": kind,
            "ms": (end - begin) * 1e3 * factor,
            "bytes": len(line),
            "ok": bool(reply.get("ok")),
        }
        self.records.append(record)
        if not record["ok"]:
            return False
        if kind == "update":
            return reply["applied"] == BATCH_EDGES
        # Epochs advance once per update and updates alternate apply /
        # revert, so an odd epoch is a batch state and an even one base.
        epoch = reply["epoch"]
        state = 0 if epoch % 2 == 0 else ((epoch - 1) // 2) % BATCHES + 1
        record.update(
            hit=reply["cache_hit"],
            coalesced=reply["coalesced"],
            eval_ms=reply["elapsed_ms"] * factor,
        )
        if tracer is not None:
            root = tracer.add("serve.request", begin, end, op=index)
            # The server's own evaluation time, as it reports it.
            tracer.add(
                "serve.eval", begin, begin + reply["elapsed_ms"] / 1e3,
                parent=root, op=index,
            )
        return decode_edge_matches(reply["result"]) == self.expected[index, state]

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    # -- per-layer attribution (traced run only) ------------------------
    def layers(self, clock) -> Dict[str, float]:
        stats = self.server.call(0, {"op": "stats"})["stats"]
        queries = [r for r in self.records if r["kind"] == "query" and r["ok"]]
        updates = [r["ms"] for r in self.records if r["kind"] == "update"]
        hits = [r["ms"] for r in queries if r["hit"]]
        misses = [r for r in queries if not r["hit"]]
        update = p50_tail(updates)

        def p50(values: List[float]) -> float:
            return median(values) if values else 0.0

        layers = {
            "serve.boot_s": median(self.boots),
            "serve.eval_ms_p50": p50([r["eval_ms"] for r in misses]),
            "serve.overhead_ms_p50": p50([r["ms"] - r["eval_ms"] for r in queries]),
            "serve.hit_ms_p50": p50(hits),
            "serve.miss_ms_p50": p50([r["ms"] for r in misses]),
            "serve.hit_ratio": len(hits) / len(queries),
            "serve.coalesced_ratio": (
                sum(r["coalesced"] for r in queries) / len(queries)
            ),
            "serve.update_ms_p50": update["p50"],
            "serve.update_ms_tail": update["tail"],
            "serve.response_bytes_p50": percentile(
                sorted(r["bytes"] for r in queries), 50.0
            ),
            "serve.epoch_swaps": stats["epoch"]["swaps"],
            "serve.shed": stats["requests"]["shed"],
        }
        layers.update(self._replay_maintenance(clock))
        return layers

    def _replay_maintenance(self, clock) -> Dict[str, float]:
        """The update path in process, as the server's maintenance thread
        runs it: ``apply_delta`` then ``checkpoint`` per batch."""
        graph = self.graph.copy()
        definitions = amazon_views().definitions()
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.attach_maintenance(tracker)
        engine.checkpoint()
        apply_ms, checkpoint_ms = [], []
        clock.sample()
        for batch in self.batches:
            for revert in (False, True):
                delta = Delta()
                for source, target in batch:
                    (delta.delete if revert else delta.insert)(source, target)
                factor, raw, _ = clock.slice(lambda: engine.apply_delta(delta))
                apply_ms.append(raw * factor * 1e3)
                factor, raw, _ = clock.slice(engine.checkpoint)
                checkpoint_ms.append(raw * factor * 1e3)
        documents = [pattern_to_json(query) for query in self.queries]

        def decode_all() -> List[float]:
            times = []
            for document in documents:
                started = perf_counter()
                pattern_from_json(document)
                times.append((perf_counter() - started) * 1e3)
            return times

        factor, _, decode_ms = clock.slice(decode_all)
        return {
            "views.apply_delta_ms_p50": median(apply_ms),
            "engine.checkpoint_ms": median(checkpoint_ms),
            "graph.pattern_decode_ms": median(decode_ms) * factor,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
