"""Observability overhead: the metrics/trace layer must be ~free.

The instrumentation contract (see ``src/repro/obs/``): hot kernels
aggregate counts in local ints and write the registry once per call, and
spans materialize only under an active root span.  This module pins that
contract to measured behaviour:

* ``test_metrics_overhead_within_budget`` -- the same cold engine batch
  (eight queries on the Fig. 8(d) synthetic graph, 3 000 nodes, run
  ``BATCHES_PER_SAMPLE`` times per timed sample) through an engine with
  a recording registry vs a disabled (no-op) one, interleaved min-of-N;
  the recording run must stay within 5%.
* ``test_untraced_span_is_passthrough`` -- with no root span active,
  ``span()`` must cost no more than a few hundred nanoseconds per call.

Run with ``python -m pytest benchmarks/bench_obs.py -q``.
"""

import gc
from time import perf_counter

import pytest

from repro.bench import workloads
from repro.engine import QueryEngine
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

#: |V| of the synthetic graph: the smallest Fig. 8(d) point, where the
#: batch's answers are nonempty.
NUM_NODES = 3000
SIZES = [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (4, 4), (4, 6), (6, 6)]

#: The acceptance budget: recording metrics may cost at most this factor
#: over the no-op registry on a cold engine batch.
OVERHEAD_BUDGET = 1.05

#: One cold batch takes ~2 ms: timed alone, bursts of noise from other
#: tenants swing a min-of-7 ratio from 0.74 to 1.18 on a shared box.  A
#: timed sample is eight batches per variant, alternating batch by batch
#: so both variants see the same bursts, with the cyclic collector off
#: (as ``timeit`` runs): a gen-2 pass over a big test process's heap
#: lands in whichever variant allocates past the threshold.
BATCHES_PER_SAMPLE = 8
SAMPLES = 15


@pytest.fixture(scope="module")
def workload():
    graph, views = workloads.synthetic(NUM_NODES)
    queries = [
        workloads.pick_query(views, n, m, graph=graph) for n, m in SIZES
    ]
    return graph, views, queries


def _run_cold(graph, views, queries, registry):
    engine = QueryEngine(
        views, graph=graph, selection="minimal", registry=registry
    )
    return engine.answer_batch(queries)


def _timed(graph, views, queries, registry):
    started = perf_counter()
    _run_cold(graph, views, queries, registry)
    return perf_counter() - started


def _sample(graph, views, queries, registries):
    """Per registry, the time of ``BATCHES_PER_SAMPLE`` cold batches,
    run alternately with the other registries'."""
    gc.collect()
    gc.disable()
    try:
        totals = [0.0] * len(registries)
        for _ in range(BATCHES_PER_SAMPLE):
            for i, registry in enumerate(registries):
                totals[i] += _timed(graph, views, queries, registry)
        return totals
    finally:
        gc.enable()


def test_metrics_overhead_within_budget(workload):
    """Cold batch with a recording registry stays within 5% of no-op."""
    graph, views, queries = workload
    recording = MetricsRegistry(enabled=True)
    disabled = MetricsRegistry(enabled=False)
    # Warm everything timing-irrelevant with one untimed sample (imports,
    # label index, the interpreter's specialised code on both paths;
    # containment caches live per-engine so cold stays cold).
    _sample(graph, views, queries, (disabled, recording))
    # Interleaved min-of-N: alternating runs see the same background
    # noise, and the min is the honest cost floor of each variant.
    on = off = float("inf")
    for _ in range(SAMPLES):
        sample_off, sample_on = _sample(graph, views, queries, (disabled, recording))
        off, on = min(off, sample_off), min(on, sample_on)
    assert on <= off * OVERHEAD_BUDGET, (
        f"metrics overhead {on / off - 1:.1%} exceeds "
        f"{OVERHEAD_BUDGET - 1:.0%} budget (on={on:.4f}s off={off:.4f}s)"
    )
    # The recording run actually recorded (the comparison is honest).
    snapshot = recording.snapshot()
    assert snapshot["counters"], "recording registry saw no metrics"


def test_untraced_span_is_passthrough():
    """``span()`` without a root span must be a no-op context manager."""
    spins = 200_000
    started = perf_counter()
    for _ in range(spins):
        with trace.span("noop"):
            pass
    per_call = (perf_counter() - started) / spins
    assert trace.current_span() is None
    assert per_call < 5e-6, f"untraced span() costs {per_call * 1e9:.0f}ns"
