"""The one driver every workload runs under, and the records it fills.

A workload is an object with the methods :func:`run_workload` calls, in
order: ``generate``, ``oracle`` and ``sequence`` (harness work: inputs,
expected answers, the seeded op sequence every pass replays), ``setup``
(the program's own set-up, repeated; returns normalised and raw
seconds) and ``warm``, then a
fixed number of ``run_pass`` calls that each replay it, and in a traced
run ``layers``.  ``close`` always runs.
"""

from __future__ import annotations

import gc
import os
import random
import resource
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

from repro.graph.flatbuf import BACKEND_ENV

from perf.calibrate import Clock, percentile, tail_percentile

#: How often the program's set-up is repeated; ``setup_s`` is the median.
#: Set-up is the dearest thing a run does and the driver's 92 runs share
#: one time budget, so twice has to do.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    #: Scratch directory inside the checkout, removed when the run ends.
    work_dir: Path
    #: Where trace files go.
    out_dir: Path


class Tracer:
    """Spans recorded from the harness side of each layer boundary."""

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> int:
        """Record one span; returns its id, for children to name."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
        )
        return len(self.spans) - 1


class Samples:
    """One measured phase.  Every pass replays the same op sequence cut
    into the same slices.

    Where ops run one after another (``replicas``), slice ``i`` and op
    ``j`` of different passes are the same work, and the median over
    passes of each drops the passes a machine stall landed on: a pass's
    time is the sum of its slices' medians, an op's latency its median.
    Where connections race, which request meets a cache miss differs
    from pass to pass while a whole pass does the same work: a pass's
    time is the median of the passes' sums and latencies are pooled.
    """

    def __init__(self, ops_per_pass: int, replicas: bool, tail_cap: float = 100.0) -> None:
        self.ops_per_pass = ops_per_pass
        self.replicas = replicas
        self.tail_cap = tail_cap
        #: Per pass: each slice's normalised / raw seconds.
        self.slice_s: List[List[float]] = [[]]
        self.slice_raw_s: List[List[float]] = [[]]
        #: Per pass: each op's normalised / raw latency, in sequence order.
        self.lat_ms: List[List[float]] = [[]]
        self.lat_raw_ms: List[List[float]] = [[]]
        self.attempted = 0
        self.failed = 0

    def add_slice(self, factor: float, raw_s: float, latencies_s: Sequence[float]) -> None:
        self.slice_s[-1].append(raw_s * factor)
        self.slice_raw_s[-1].append(raw_s)
        self.attempted += len(latencies_s)
        self.lat_raw_ms[-1].extend(latency * 1e3 for latency in latencies_s)
        self.lat_ms[-1].extend(latency * 1e3 * factor for latency in latencies_s)

    def end_pass(self) -> None:
        for series in (self.slice_s, self.slice_raw_s, self.lat_ms, self.lat_raw_ms):
            series.append([])

    @property
    def passes(self) -> int:
        return len(self.slice_s) - 1

    def pass_seconds(self, raw: bool = False) -> float:
        done = (self.slice_raw_s if raw else self.slice_s)[:-1]
        if self.replicas:
            return sum(median(column) for column in zip(*done))
        return median([sum(slices) for slices in done])

    def throughput(self, raw: bool = False) -> float:
        return self.ops_per_pass / self.pass_seconds(raw)

    def latency(self, raw: bool = False) -> Dict[str, float]:
        """Median and tail of the op latencies, see :func:`p50_tail`."""
        done = (self.lat_raw_ms if raw else self.lat_ms)[:-1]
        if self.replicas:
            typical = [median(column) for column in zip(*done)]
            return p50_tail(typical, self.passes, self.tail_cap)
        return p50_tail([latency for ops in done for latency in ops], 1, self.tail_cap)

    def measured_raw_s(self) -> float:
        return sum(map(sum, self.slice_raw_s))


def passes_for(seconds: float, pass_ref_s: float, min_passes: int) -> int:
    """How many passes fill ``seconds`` at reference machine speed.

    A count, never a deadline: both sides of a comparison then replay
    exactly the same ops, whatever the machine does meanwhile.  Never
    fewer than the workload's ``min_passes``, so medians over passes exist.
    """
    return max(min_passes, round(seconds / pass_ref_s))


def p50_tail(
    values: Sequence[float], samples_each: int = 1, cap: float = 100.0
) -> Dict[str, float]:
    """Median, tail value, the tail's percentile and samples beyond it.
    Each value may stand for ``samples_each`` samples (a median over that
    many passes); the tail rule counts the samples.  ``cap`` holds the
    percentile below a level the workload knows to be a cliff edge."""
    ordered = sorted(values)
    samples = len(ordered) * samples_each
    p = min(tail_percentile(samples), cap)
    return {
        "p50": percentile(ordered, 50.0),
        "tail": percentile(ordered, p),
        "tail_percentile": p,
        "samples": samples,
        "beyond": samples * (100.0 - p) / 100.0,
    }


@contextmanager
def bytes_backend() -> Iterator[None]:
    """Keep flat buffers the harness packs for measurement in process
    memory: no ``/dev/shm`` segment, nothing written outside the checkout."""
    previous = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = "bytes"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[BACKEND_ENV]
        else:
            os.environ[BACKEND_ENV] = previous


def src_env(work_dir: Path) -> Dict[str, str]:
    """The environment program subprocesses run in: the checkout's
    ``src`` importable, temporary files under the checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = str(work_dir)
    return env


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, cfg: Config) -> dict:
    """Run one workload under ``cfg``; returns the report dict."""
    clock = Clock()
    tracer = Tracer() if cfg.trace else None
    try:
        started = perf_counter()
        workload.generate()
        generate_s = perf_counter() - started
        started = perf_counter()
        workload.oracle()
        oracle_s = perf_counter() - started
        workload.sequence(random.Random(f"{workload.name}:{cfg.seed}"))
        # The harness's own reference data would otherwise be walked by
        # every full collection of the program's set-up and ops.
        gc.collect()
        gc.freeze()

        started = perf_counter()
        setups = []
        for _ in range(1 if cfg.tiny else SETUP_REPEATS):
            clock.sample()
            setups.append(workload.setup(clock))
        workload.warm(clock)
        gc.collect()
        gc.freeze()
        setup_wall_s = perf_counter() - started

        passes = 2 if cfg.tiny else passes_for(
            cfg.seconds, workload.pass_ref_s, workload.min_passes
        )
        plain = workload.samples()
        traced = workload.samples()
        clock.sample()
        for index in range(passes):
            if cfg.trace and index % 2:
                workload.run_pass(clock, traced, tracer)
                traced.end_pass()
            else:
                workload.run_pass(clock, plain, None)
                plain.end_pass()

        latency = plain.latency()
        raw_latency = plain.latency(raw=True)
        report = {
            "workload": workload.name,
            "seed": cfg.seed,
            "passes": passes,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "latency_samples": latency["samples"],
            "tail_percentile": latency["tail_percentile"],
            "tail_samples_beyond": latency["beyond"],
            "measured_raw_s": plain.measured_raw_s() + traced.measured_raw_s(),
            "harness_wall_s": {
                "generate": generate_s,
                "oracle": oracle_s,
                "setup_and_warm": setup_wall_s,
            },
            "noisy": clock.spread() > 2.0,
            "end_to_end": {
                "setup_s": median([normalised for normalised, _ in setups]),
                "throughput_ops_s": plain.throughput(),
                "latency_p50_ms": latency["p50"],
                "latency_tail_ms": latency["tail"],
                "peak_rss_mb": workload.peak_rss_mb(),
            },
            # The same timings without normalisation, to judge it by.
            "raw": {
                "setup_s": median([raw for _, raw in setups]),
                "throughput_ops_s": plain.throughput(raw=True),
                "latency_p50_ms": raw_latency["p50"],
                "latency_tail_ms": raw_latency["tail"],
                "cal_ms_p50": median(clock.samples_ms),
            },
        }
        if cfg.trace:
            layers = workload.layers(clock)
            cal = sorted(clock.samples_ms)
            layers.update(
                {
                    "harness.cal_ms_p50": percentile(cal, 50.0),
                    "harness.cal_spread": clock.spread(),
                    "harness.raw_throughput_ops_s": plain.throughput(raw=True),
                    "harness.generate_s": generate_s,
                    "harness.oracle_s": oracle_s,
                    "harness.slices": clock.slices,
                    "harness.trace_overhead_ratio": (
                        plain.throughput() / traced.throughput()
                    ),
                }
            )
            report["per_layer"] = layers
            report["spans"] = tracer.spans
        return report
    finally:
        workload.close()
        gc.unfreeze()
