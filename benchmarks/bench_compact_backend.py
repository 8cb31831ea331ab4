"""Compact graph backend vs. the mutable dict backend.

Not a paper figure -- this benchmarks the PR that threads the
``CompactGraph`` snapshot (dense integer ids, array adjacency, label
index) through the matching stack.  Both backends answer the same
synthetic workload (the Fig. 8(d) graph family with the 22-view suite):

* **match** -- direct evaluation of each query on ``G``: dict backend
  vs. the frozen snapshot's integer-id engine.

``test_compact_speedup_over_dict`` asserts the headline claim of the
refactor -- the compact backend answers the direct-match workload at
least 2x faster than the dict backend -- and that both backends return
identical results, MatchJoin (one kernel, whatever the id space of the
extensions) included, so neither can silently drift.  Freezing and
materialization happen outside every timed region (the snapshot is
built once and serves the whole batch, exactly how ``QueryEngine`` uses
it).
"""

from time import perf_counter

import pytest

from repro.bench import workloads
from repro.core.minimal import minimal_views
from repro.core.matchjoin import match_join
from repro.simulation import match
from repro.views.storage import ViewSet

from common import once

#: Pattern sizes of the batch (a slice of the paper's Fig. 8(e) axis).
SIZES = [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (6, 12), (8, 8), (8, 12)]


@pytest.fixture(scope="module")
def workload(scale):
    graph, views = workloads.synthetic(max(500, int(6000 * scale)))
    frozen = graph.freeze()
    compact_views = ViewSet(list(views))
    compact_views.materialize(frozen)
    queries = [
        workloads.pick_query(views, n, m, graph=graph, tag=f"compact{i}")
        for i, (n, m) in enumerate(SIZES)
    ]
    containments = [minimal_views(query, views) for query in queries]
    return graph, frozen, views, compact_views, queries, containments


def _run_match(graph, queries):
    return [match(query, graph) for query in queries]


def _run_matchjoin(views, queries, containments):
    return [
        match_join(query, containment, views)
        for query, containment in zip(queries, containments)
    ]


def test_dict_match(benchmark, workload):
    graph, _, _, _, queries, _ = workload
    once(benchmark, _run_match, graph, queries)


def test_compact_match(benchmark, workload):
    _, frozen, _, _, queries, _ = workload
    once(benchmark, _run_match, frozen, queries)


def _timed(fn, *args):
    started = perf_counter()
    result = fn(*args)
    return perf_counter() - started, result


def test_compact_speedup_over_dict(workload):
    """Acceptance check: compact direct match >= 2x dict backend."""
    graph, frozen, views, compact_views, queries, containments = workload

    # min-of-3 per leg to de-noise millisecond-scale runs.
    dict_time = min(_timed(_run_match, graph, queries)[0] for _ in range(3))
    compact_time = min(_timed(_run_match, frozen, queries)[0] for _ in range(3))
    assert dict_time >= 2 * compact_time, (
        f"dict {dict_time:.4f}s vs compact {compact_time:.4f}s "
        f"({dict_time / compact_time:.2f}x)"
    )

    # Same answers on both backends, and (Theorem 1) MatchJoin agrees
    # with direct evaluation.
    dict_match = _run_match(graph, queries)
    compact_match_ = _run_match(frozen, queries)
    dict_join = _run_matchjoin(views, queries, containments)
    compact_join = _run_matchjoin(compact_views, queries, containments)
    for a, b, c, d in zip(dict_match, compact_match_, dict_join, compact_join):
        assert a == b
        assert c == d
        assert c.edge_matches == a.edge_matches
