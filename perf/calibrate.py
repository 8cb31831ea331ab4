"""Machine-speed calibration and the arithmetic built on it.

The benchmark runs on a shared box whose speed drifts by tens of per
cent within an hour and, on top of that, stalls in bursts shorter than
one op.  Every timed interval is scaled by a fixed calibration kernel
run immediately before and after it, so a reported time means "at
reference machine speed"; a kernel sample is the faster of two runs,
so it follows the drift and ignores the bursts, which the medians over
passes in :mod:`perf.harness` remove instead.

The kernel is a candidate-pruning sweep over a seeded adjacency dict --
the same dict/set instruction mix as the program's fixpoints -- and
imports nothing from ``repro``, so no change under ``src/`` can move it.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Kernel time, in milliseconds, that defines reference machine speed.
#: A constant of the benchmark: changing it rescales every timing.
CAL_REF_MS = 8.3

#: Most work, in seconds, that may run between two kernel samples.
SLICE_LIMIT_S = 0.4

#: Samples a slice's factor is taken from: the one after it and the few
#: before.  Drift takes minutes and a sample carries a few per cent of
#: noise of its own, which a workload of a dozen slices cannot average out.
FACTOR_WINDOW = 4

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)

_KERNEL_NODES = 20_000
_KERNEL_DEGREE = 4
_KERNEL_LABELS = 5
_KERNEL_SWEEPS = 2
_SAMPLE_RUNS = 2


class Kernel:
    """The calibration kernel: build once, call to run one sweep set."""

    def __init__(self) -> None:
        rng = random.Random(0xCA11B)
        nodes = range(_KERNEL_NODES)
        self._succ = {
            v: {rng.randrange(_KERNEL_NODES) for _ in range(_KERNEL_DEGREE)}
            for v in nodes
        }
        self._by_label: List[List[int]] = [[] for _ in range(_KERNEL_LABELS)]
        for v in nodes:
            self._by_label[rng.randrange(_KERNEL_LABELS)].append(v)
        self._edges = [(i, (i + 1) % _KERNEL_LABELS) for i in range(_KERNEL_LABELS)]

    def __call__(self) -> int:
        """Prune label-candidate sets along a cyclic pattern for a fixed
        number of sweeps; returns the survivor count (input-determined)."""
        succ = self._succ
        cand = [set(bucket) for bucket in self._by_label]
        for _ in range(_KERNEL_SWEEPS):
            for a, b in self._edges:
                targets = cand[b]
                cand[a] = {v for v in cand[a] if not succ[v].isdisjoint(targets)}
        return sum(len(c) for c in cand)


class Clock:
    """Samples the kernel and normalises the work run between samples."""

    def __init__(self) -> None:
        self._kernel = Kernel()
        self.samples_ms: List[float] = []
        self.slices = 0
        self.sample()

    def sample(self) -> float:
        """Record the fastest of a few kernel runs, in milliseconds."""
        fastest = float("inf")
        for _ in range(_SAMPLE_RUNS):
            started = perf_counter()
            self._kernel()
            fastest = min(fastest, perf_counter() - started)
        self.samples_ms.append(fastest * 1e3)
        return fastest * 1e3

    def slice(self, work: Callable[[], T]) -> Tuple[float, float, T]:
        """Run ``work`` as one slice: ``(factor, raw seconds, result)``.

        The sample taken after the previous slice serves as this one's
        "before"; call :meth:`sample` first when untimed harness work
        has run in between.
        """
        started = perf_counter()
        result = work()
        raw = perf_counter() - started
        self.slices += 1
        self.sample()
        return slice_factor(self.samples_ms[-FACTOR_WINDOW:]), raw, result

    def spread(self) -> float:
        """p90 / p10 of the kernel samples: above 2 the run is noisy."""
        ordered = sorted(self.samples_ms)
        return percentile(ordered, 90.0) / percentile(ordered, 10.0)


def slice_factor(window_ms: Sequence[float]) -> float:
    """What a slice's durations are multiplied by to reach reference
    speed: the reference kernel time over the median of the samples
    around the slice."""
    return CAL_REF_MS / median(window_ms)


def cut_slices(costs: Sequence[float], limit: float = SLICE_LIMIT_S) -> List[Tuple[int, int]]:
    """Cut consecutive ops into ``(start, stop)`` slices whose estimated
    cost stays within ``limit``; an op costlier than that is alone."""
    slices: List[Tuple[int, int]] = []
    start, total = 0, 0.0
    for index, cost in enumerate(costs):
        if index > start and total + cost > limit:
            slices.append((start, index))
            start, total = index, 0.0
        total += cost
    if start < len(costs):
        slices.append((start, len(costs)))
    return slices


def percentile(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ascending ``ordered``, interpolating
    linearly between closest ranks."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond
    it; with fewer than forty samples none has, and the upper quartile
    stands in (the output states how many samples lie beyond)."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10.0:
            return p
    return TAIL_LADDER[-1]
