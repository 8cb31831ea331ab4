"""Where the array Match kernel starts to repay its set-up.

Not a paper figure -- this is the measurement behind
``repro.simulation.array_engine.ARRAY_MIN_EDGES``.  Both id-space Match
kernels answer the same ten patterns (six view patterns and four
``query_from_views`` queries) on stand-ins of growing size, ``N = E / 3``
nodes; per size the table prints the summed best-of-``reps`` time of
each kernel.  The crossover is where the ratio passes 1.

``perf/`` has no workload on the small side of the cut, so this script
is the only evidence for the constant: re-run it (``python
benchmarks/bench_kernel_cut.py [amazon|youtube|citation]``) before
moving it.  ``test_kernels_agree_and_array_wins_at_scale`` is the smoke
CI runs: equal outcomes at every size, and the array kernel ahead well
above the cut.
"""

import sys
from time import perf_counter

import pytest

from repro import datasets
from repro.simulation import array_engine
from repro.simulation.compact_engine import extract, no_match, witness_fixpoint

SIZES = (100, 300, 1_000, 1_500, 2_000, 2_500, 4_000, 10_000, 30_000, 100_000)


def _sets(pattern, frozen):
    state = witness_fixpoint(pattern, frozen, frozen.num_nodes)
    return no_match() if state is None else extract(pattern, frozen, state)


def _array(pattern, frozen):
    import numpy

    return array_engine._mask_rows_sweep(numpy, pattern, frozen)


def _best(kernel, pattern, frozen, reps):
    times = []
    for _ in range(reps):
        started = perf_counter()
        kernel(pattern, frozen)
        times.append(perf_counter() - started)
    return min(times)


def _queries(dataset):
    views = getattr(datasets, dataset + "_views")()
    sizes = [(4, 4), (5, 7), (6, 9), (8, 12)]
    return [d.pattern for d in list(views)[:6]] + [
        datasets.query_from_views(views, n, e, seed=seed)
        for seed, (n, e) in enumerate(sizes)
    ]


def measure(dataset, sizes=SIZES, reps=30):
    """``[(edges, nodes, sets ms, array ms)]``, outcomes asserted equal."""
    queries = _queries(dataset)
    make = getattr(datasets, dataset + "_graph")
    table = []
    for edges in sizes:
        frozen = make(max(edges // 3, 20), edges, seed=11).freeze()
        frozen.edge_columns()  # built once per snapshot, outside the timing
        for query in queries:
            assert _sets(query, frozen)[0] == _array(query, frozen)[0]
        runs = reps if edges <= 10_000 else max(3, reps // 6)
        sets_s = sum(_best(_sets, query, frozen, runs) for query in queries)
        array_s = sum(_best(_array, query, frozen, runs) for query in queries)
        table.append((frozen.num_edges, frozen.num_nodes, sets_s * 1e3, array_s * 1e3))
    return table


def test_kernels_agree_and_array_wins_at_scale():
    pytest.importorskip("numpy")
    (_, _, small_sets, small_array), (_, _, sets_ms, array_ms) = measure(
        "amazon", sizes=(300, 30_000), reps=6
    )
    assert small_sets > 0 and small_array > 0
    assert array_ms < sets_ms


if __name__ == "__main__":
    for name in sys.argv[1:] or ["amazon", "youtube", "citation"]:
        print(f"{name}: edges nodes sets_ms array_ms sets/array")
        for edges, nodes, sets_ms, array_ms in measure(name):
            print(
                f"{edges:7d} {nodes:6d} {sets_ms:8.2f} {array_ms:8.2f} "
                f"{sets_ms / array_ms:5.2f}"
            )
