"""Shipping shared (flat-segment) snapshots and views vs. in-process ones.

Not a paper figure -- this benchmarks what moving snapshots and view
extensions into flat shared-memory buffers (CSR id rows + node tables
in one segment per object) buys a process-pool executor:

* **snapshot shipping** -- ``pickle.dumps`` + ``loads`` of the full
  serving payload (frozen snapshot + every materialized view), which is
  what a process-pool executor pays per worker per epoch.  Shared
  objects pickle to segment handles, so the payload ships in
  near-constant bytes regardless of graph size.

``test_flat_gates`` asserts the headline claim at full scale
(``REPRO_BENCH_SCALE >= 1``, the largest ``bench_compact_backend``
graph): the shared payload ships at least **5x** faster.  At reduced
scales (CI smoke runs) the gate relaxes to "no slower", but **MatchJoin
equivalence against the dict backend is asserted at every scale**, on
the same synthetic workload as ``bench_compact_backend`` (Fig. 8(d)
graph family, 22-view suite, Fig. 8(e) pattern-size batch) -- packed
and in-process extensions run one kernel and can never silently drift.
Freezing/materialization happens outside every timed region, exactly
how ``QueryEngine`` uses the snapshot.
"""

import pickle
from time import perf_counter

import pytest

from repro.bench import workloads
from repro.core.minimal import minimal_views
from repro.core.matchjoin import match_join
from repro.graph import SharedCompactGraph, live_segment_names
from repro.views.flatpack import FlatExtension
from repro.views.storage import ViewSet

from common import once

#: Pattern sizes of the batch (same axis slice as bench_compact_backend).
SIZES = [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (6, 12), (8, 8), (8, 12)]


@pytest.fixture(scope="module")
def workload(scale):
    graph, views = workloads.synthetic(max(500, int(6000 * scale)))
    frozen = graph.freeze()
    compact_views = ViewSet(list(views))
    compact_views.materialize(frozen)
    shared = graph.freeze(shared=True)
    assert isinstance(shared, SharedCompactGraph)
    flat_views = ViewSet(list(views))
    flat_views.materialize(shared)
    dict_views = ViewSet(list(views))
    dict_views.materialize(graph)
    queries = [
        workloads.pick_query(views, n, m, graph=graph, tag=f"compact{i}")
        for i, (n, m) in enumerate(SIZES)
    ]
    containments = [minimal_views(query, views) for query in queries]
    payload_compact = {
        "snapshot": frozen,
        "views": {d.name: compact_views.extension(d.name) for d in views},
    }
    payload_flat = {
        "snapshot": shared,
        "views": {d.name: flat_views.extension(d.name) for d in views},
    }
    return (
        compact_views,
        flat_views,
        dict_views,
        queries,
        containments,
        payload_compact,
        payload_flat,
    )


def _run_matchjoin(views, queries, containments):
    return [
        match_join(query, containment, views)
        for query, containment in zip(queries, containments)
    ]


def _ship(payload):
    """One process-pool ship: serialize + worker-side reconstruct."""
    return pickle.loads(pickle.dumps(payload))


def test_compact_ship(benchmark, workload):
    once(benchmark, _ship, workload[5])


def test_flat_ship(benchmark, workload):
    once(benchmark, _ship, workload[6])


def _timed(fn, *args):
    started = perf_counter()
    result = fn(*args)
    return perf_counter() - started, result


def _min_of(runs, fn, *args):
    return min(_timed(fn, *args)[0] for _ in range(runs))


def test_flat_views_really_flat(workload):
    """Every materialized extension on the shared snapshot is packed."""
    _, flat_views, _, _, _, _, payload_flat = workload
    for view in payload_flat["views"].values():
        assert isinstance(view.compact, FlatExtension)
        assert view.compact.ships_as_handle


def test_flat_gates(scale, workload):
    """Acceptance gate: >=5x ship at full scale."""
    (
        compact_views,
        flat_views,
        dict_views,
        queries,
        containments,
        payload_compact,
        payload_flat,
    ) = workload

    # Equivalence at EVERY scale: flat == compact == dict, per query.
    dict_results = _run_matchjoin(dict_views, queries, containments)
    compact_results = _run_matchjoin(compact_views, queries, containments)
    flat_results = _run_matchjoin(flat_views, queries, containments)
    for expected, compact, flat in zip(
        dict_results, compact_results, flat_results
    ):
        assert flat == expected
        assert compact == expected

    # min-of-5 per leg to de-noise millisecond-scale runs.
    compact_ship = _min_of(5, _ship, payload_compact)
    flat_ship = _min_of(5, _ship, payload_flat)

    if scale >= 1.0:
        assert compact_ship >= 5 * flat_ship, (
            f"ship: compact {compact_ship:.4f}s vs flat {flat_ship:.4f}s "
            f"({compact_ship / flat_ship:.2f}x)"
        )
    else:
        # Reduced-scale smoke: the flat path must at least never lose.
        assert flat_ship <= compact_ship, (
            f"flat ship regressed at scale {scale}: "
            f"{flat_ship:.4f}s vs compact {compact_ship:.4f}s"
        )

    # Payload size: segment handles, not buffers, go through pickle.
    assert len(pickle.dumps(payload_flat)) < len(pickle.dumps(payload_compact))


def test_no_segment_leaks(workload):
    """The module's shared objects account for every live segment."""
    # Everything the fixture created is still referenced here, so the
    # only assertion that makes sense mid-run is that attach/ship cycles
    # above did not strand extra segments: re-shipping and dropping the
    # result must leave the live-segment set unchanged.
    before = set(live_segment_names())
    clone = _ship(workload[6])
    del clone
    import gc

    gc.collect()
    assert set(live_segment_names()) == before
