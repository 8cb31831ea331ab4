"""Where the array kernels start to repay their set-up.

Not a paper figure -- this is the measurement behind
``repro.simulation.array_engine.ARRAY_MIN_EDGES``, the one size cut of
Match and BMatch alike.  Both id-space kernels answer the same ten
patterns (six view patterns and four ``query_from_views`` queries) on
stand-ins of growing size, ``N = E / 3`` nodes; per size the table
prints the summed best-of-``reps`` time of each kernel.  The crossover
is where the ratio passes 1.  The series are the plain patterns
(``match``) and the same patterns with every edge bounded by 2 or 3,
without and with the distance index (``bmatch@2``, ``bmatch@2+d``, ...).

``perf/`` has no workload on the small side of the cut, so this script
is the only evidence for the constant: re-run it (``python
benchmarks/bench_kernel_cut.py [amazon|youtube|citation]``) before
moving it.  ``test_kernels_agree_and_array_wins_at_scale`` is the smoke
CI runs, on three of the series: equal outcomes at every size, and the
array kernel ahead well above the cut.
"""

import sys
from time import perf_counter

import pytest

from repro import datasets
from repro.simulation import array_engine, compact_bounded, compact_engine

SIZES = (100, 300, 1_000, 1_500, 2_000, 2_500, 4_000, 10_000, 30_000, 100_000)

#: ``{series: (bound of every edge or None for plain, with distances)}``.
SERIES = {
    "match": (None, False),
    "bmatch@2": (2, False),
    "bmatch@2+d": (2, True),
    "bmatch@3": (3, False),
    "bmatch@3+d": (3, True),
}


def _kernels(series):
    """``(prepare, set kernel, array kernel)`` of one series, the
    kernels as ``f(pattern, frozen)`` past the dispatch."""
    import numpy

    bound, distances = SERIES[series]
    if bound is None:
        return (
            lambda pattern: pattern,
            compact_engine._set_match,
            lambda p, frozen: array_engine._mask_rows_sweep(numpy, p, frozen),
        )
    return (
        lambda pattern: pattern.bounded(default=bound),
        lambda p, frozen: compact_bounded._set_bounded_match(p, frozen, distances),
        lambda p, frozen: array_engine._cones_pairs(numpy, p, frozen, distances),
    )


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


def measure(dataset, sizes=SIZES, reps=30, series="match"):
    """``[(edges, nodes, sets ms, array ms)]``, outcomes asserted equal."""
    prepare, sets, arrays = _kernels(series)
    queries = list(map(prepare, _queries(dataset)))
    make = getattr(datasets, dataset + "_graph")
    table = []
    for edges in sizes:
        frozen = make(max(edges // 3, 20), edges, seed=11).freeze()
        frozen.edge_columns()  # built once per snapshot, outside the timing
        for query in queries:
            by_sets, by_array = sets(query, frozen), arrays(query, frozen)
            assert by_sets[0] == by_array[0] and by_sets[2] == by_array[2]
        runs = reps if edges <= 10_000 else max(3, reps // 6)
        sets_s = sum(_best(sets, query, frozen, runs) for query in queries)
        array_s = sum(_best(arrays, query, frozen, runs) for query in queries)
        table.append((frozen.num_edges, frozen.num_nodes, sets_s * 1e3, array_s * 1e3))
    return table


@pytest.mark.parametrize("series", ["match", "bmatch@2+d", "bmatch@3"])
def test_kernels_agree_and_array_wins_at_scale(series):
    pytest.importorskip("numpy")
    (_, _, small_sets, small_array), (_, _, sets_ms, array_ms) = measure(
        "amazon", sizes=(300, 30_000), reps=6, series=series
    )
    assert small_sets > 0 and small_array > 0
    assert array_ms < sets_ms


if __name__ == "__main__":
    for name in sys.argv[1:] or ["amazon", "youtube", "citation"]:
        for series in SERIES:
            print(f"{name} {series}: edges nodes sets_ms array_ms sets/array")
            for edges, nodes, sets_ms, array_ms in measure(name, series=series):
                print(
                    f"{edges:7d} {nodes:6d} {sets_ms:8.2f} {array_ms:8.2f} "
                    f"{sets_ms / array_ms:5.2f}"
                )
