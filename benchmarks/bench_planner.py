"""Planner/advisor gates: adaptive planning must pay for itself.

Part 1 -- a mixed workload (hot fully-contained queries, a partially
covered query, a fully uncovered query) runs under every fixed
strategy (direct-only, matchjoin over ``all``/``minimal``/``minimum``
selections, forced hybrid) and under the cost-based adaptive planner.
The gate: adaptive is at least as fast as **every** fixed strategy and
strictly beats the worst one by >1.1x -- i.e. picking per-query beats
any single policy, and the cost model's picks are right.

Part 2 -- a cold catalog plus a hot workload: the
:class:`~repro.engine.advisor.WorkloadAdvisor` under the paper's 15%
|G| byte budget must beat materialize-nothing by >=1.5x on the hot
queries, and its measured extension bytes must never exceed the
budget (asserted at every tick).

Correctness (identical results across all planners) is asserted at
every scale including the CI smoke at scale 0; the speedup ratios are
asserted only at ``REPRO_BENCH_SCALE >= 0.2`` where the timings are
meaningful.  Measured numbers merge into ``BENCH_summary.json`` under
a ``"planner"`` section.
"""

import json
import os
import time
from pathlib import Path
from time import perf_counter

import pytest

from repro.bench import workloads
from repro.core.containment import contains
from repro.engine import QueryEngine
from repro.graph.pattern import Pattern
from repro.views.storage import ViewSet

from common import once

SUMMARY_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_SUMMARY_OUT",
        Path(__file__).parent / "BENCH_summary.json",
    )
)

#: Speedup ratios are only asserted at meaningful scales; below this
#: the workloads are sub-millisecond and dominated by noise.
RATIO_SCALE = 0.2
ROUNDS = 6

FIXED_STRATEGIES = {
    "direct-only": dict(planner="direct"),
    "matchjoin-all": dict(planner="fixed", selection="all"),
    "minimal": dict(planner="fixed", selection="minimal"),
    "minimum": dict(planner="fixed", selection="minimum"),
    "hybrid": dict(planner="hybrid"),
}


def _pair_pattern(la, lb):
    q = Pattern()
    q.add_node("u", la)
    q.add_node("v", lb)
    q.add_edge("u", "v")
    return q


def _uncovered_pair(graph, views, limit=4000):
    """The (label, label) pair present on a real graph edge that no
    view covers, with the smallest combined label buckets -- every
    planner answers it directly, so a selective pair keeps this shared
    baseline from drowning out the queries where the planners differ."""
    stats_fn = getattr(graph, "label_index_stats", None)
    stats = stats_fn() if stats_fn is not None else {}
    seen = set()
    best = None
    for u in sorted(graph.nodes(), key=str):
        for v in sorted(graph.successors(u), key=str):
            for la in sorted(graph.labels(u)):
                for lb in sorted(graph.labels(v)):
                    if (la, lb) in seen:
                        continue
                    seen.add((la, lb))
                    if not contains(_pair_pattern(la, lb), views).holds:
                        key = (stats.get(la, 0) + stats.get(lb, 0), la, lb)
                        if best is None or key < best:
                            best = key
            limit -= 1
            if limit <= 0:
                break
    return (best[1], best[2]) if best is not None else None


@pytest.fixture(scope="module")
def summary(scale):
    """Accumulates planner numbers; merged into BENCH_summary.json
    (never overwriting other modules' sections) on module teardown."""
    data = {"scale": scale}
    yield data
    existing = {}
    if SUMMARY_PATH.exists():
        try:
            existing = json.loads(SUMMARY_PATH.read_text())
        except ValueError:
            existing = {}
    existing["planner"] = data
    existing["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    SUMMARY_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True, default=str) + "\n"
    )


def _small_view_patterns(views, count=2):
    """The ``count`` smallest-extension view patterns (skipping empty
    extensions).  Answering a view's own pattern from its extension is
    the paper's best case for MatchJoin -- a decisive win over direct
    evaluation -- which is exactly what a hot query should reward."""
    sizes = {d.name: views.extension(d.name).size for d in views.definitions()}
    names = sorted(
        (n for n in sizes if sizes[n] > 0), key=lambda n: (sizes[n], n)
    )[:count]
    if not names:
        # Degenerate graphs (the scale-0 CI smoke) leave every
        # extension empty; any view pattern still walks the whole
        # planning/evaluation path, just over empty match sets.
        names = sorted(sizes)[:count]
    patterns = {d.name: d.pattern for d in views.definitions()}
    return [patterns[name].copy() for name in names]


def _overlapped_partial(graph, views):
    """A partially covered query on which only *pruned* hybrid
    rewriting is fast.

    Base: the small view pattern whose maximal coverage drags in the
    biggest overlapping view.  Extension: one uncovered edge from the
    pattern's first node to a fresh node with the rarest label.  The
    fixed MatchJoin planners cannot answer it from views at all (they
    fall back to direct evaluation over the base pattern's big label
    buckets); the forced-hybrid baseline answers it but pays the full
    overlapping-view merge; the adaptive planner prunes λ to the
    cheapest witness per edge and fans the uncovered edge out from the
    covered anchors only."""
    sizes = {d.name: views.extension(d.name).size for d in views.definitions()}
    best = None
    for d in views.definitions():
        if not 0 < sizes[d.name] <= 1000:
            continue
        cov = contains(d.pattern.copy(), views)
        overlap = max(
            (sizes[v] for v in cov.views_used() if v != d.name), default=0
        )
        if best is None or (overlap, d.name) > best[:2]:
            best = (overlap, d.name, d.pattern)
    if best is None:
        return None
    stats_fn = getattr(graph, "label_index_stats", None)
    stats = stats_fn() if stats_fn is not None else {}
    if not stats:
        return None
    rare = min(stats, key=lambda lab: (stats[lab], str(lab)))
    partial = best[2].copy()
    anchor = sorted(partial.nodes(), key=str)[0]
    partial.add_node("pnew", rare)
    partial.add_edge(anchor, "pnew")
    cov = contains(partial, views)
    if cov.holds or not cov.mapping:
        return None
    return partial


@pytest.fixture(scope="module")
def mixed(scale):
    """The Part-1 workload: graph, fully materialized views, and a
    query mix that punishes every single-policy planner somewhere.

    * ``hot0``/``hot1`` -- small-extension view patterns: MatchJoin
      over the minimal subset beats direct by orders of magnitude
      (punishes direct-only) and reads less than the ``all`` selection
      (chips at matchjoin-all and forced hybrid).
    * ``partial`` -- partially covered with heavy view overlap: fixed
      MatchJoin falls back to direct, forced hybrid merges the big
      overlapping view, adaptive wins on the pruned λ (Section VIII).
    * ``uncovered`` -- nothing covers it (everyone pays direct; kept
      rare-labelled so the shared cost stays small).
    """
    graph, views = workloads.amazon(scale)
    views.materialize(graph)
    hot = _small_view_patterns(views)
    queries = {f"hot{i}": q for i, q in enumerate(hot)}
    partial = _overlapped_partial(graph, views)
    if partial is not None:
        queries["partial"] = partial
    pair = _uncovered_pair(graph, views)
    if pair is not None:
        queries["uncovered"] = _pair_pattern(*pair)
    # Hot queries dominate the mix, as in a production workload.
    workload = (
        [queries["hot0"]] * 3
        + ([queries["hot1"]] * 3 if "hot1" in queries else [])
        + ([queries["partial"]] * 2 if "partial" in queries else [])
        + ([queries["uncovered"]] if "uncovered" in queries else [])
    )
    return graph, views, queries, workload


def _engine(views, graph, **kwargs):
    kwargs.setdefault("answer_cache_size", 0)
    return QueryEngine(views, graph=graph, **kwargs)


def _measure_all(engines, workload):
    """Workload cost per engine, robust to a noisy host.

    Warm every engine first (calibrates cost models, fills containment
    caches, settles plans -- the adaptive planner's one-shot strategy
    exploration happens here, outside the timed region).  Then take
    each engine's best-of-ROUNDS time *per query*, interleaved
    round-robin across engines so environmental drift hits everyone
    equally, and compose the workload total from the per-query minima
    weighted by multiplicity.  Per-query minima converge on the true
    cost under bursty CPU contention, where whole-pass timings spread
    by tens of percent between engines doing identical work."""
    for engine in engines.values():
        for query in workload:
            engine.answer(query)
    unique = {id(query): query for query in workload}
    multiplicity = {}
    for query in workload:
        multiplicity[id(query)] = multiplicity.get(id(query), 0) + 1
    best = {name: {} for name in engines}
    names = list(engines)
    for round_no in range(ROUNDS):
        # Rotate engine order each round: a fixed order would pin the
        # last engine to the latest (often slowest) phase of a run.
        shift = round_no % len(names)
        for name in names[shift:] + names[:shift]:
            engine = engines[name]
            for qid, query in unique.items():
                started = perf_counter()
                engine.answer(query)
                elapsed = perf_counter() - started
                current = best[name].get(qid)
                if current is None or elapsed < current:
                    best[name][qid] = elapsed
    return {
        name: sum(
            times[qid] * multiplicity[qid] for qid in unique
        )
        for name, times in best.items()
    }


def test_planner_adaptive_beats_fixed(benchmark, mixed, summary, scale):
    graph, views, queries, workload = mixed
    engines = {
        name: _engine(views, graph, **kwargs)
        for name, kwargs in FIXED_STRATEGIES.items()
    }
    engines["adaptive"] = _engine(views, graph, planner="adaptive")

    # Correctness at every scale: all planners, identical answers.
    reference = {
        key: engines["direct-only"].answer(query)
        for key, query in queries.items()
    }
    for name, engine in engines.items():
        for key, query in queries.items():
            result = engine.answer(query)
            for edge in query.edges():
                assert result.matches_of(edge) == reference[key].matches_of(
                    edge
                ), f"{name} diverged from direct on {key} at {edge}"

    times = _measure_all(engines, workload)
    once(benchmark, lambda: [engines["adaptive"].answer(q) for q in workload])

    adaptive = times.pop("adaptive")
    summary["mixed_seconds"] = dict(times, adaptive=adaptive)
    summary["speedups"] = {
        name: elapsed / adaptive for name, elapsed in times.items()
    }
    worst = max(times.values())
    summary["speedup_vs_worst"] = worst / adaptive
    if scale >= RATIO_SCALE:
        for name, elapsed in times.items():
            assert elapsed / adaptive >= 1.0, (
                f"adaptive slower than fixed {name}: "
                f"{adaptive:.4f}s vs {elapsed:.4f}s"
            )
        assert worst / adaptive > 1.1, (
            f"adaptive only {worst / adaptive:.2f}x the worst fixed "
            "strategy (need > 1.1x)"
        )


def test_planner_explain_matches_record(mixed, summary):
    """The explain() text and the plan-choice record agree on the
    winner, with per-candidate costs present (adaptive planner)."""
    graph, views, queries, _ = mixed
    engine = _engine(views, graph, planner="adaptive")
    for key, query in queries.items():
        plan = engine.plan(query)
        text = plan.explain()
        assert "planner  : adaptive" in text
        assert plan.candidates, f"no candidates priced for {key}"
        winner = plan.winning_candidate()
        assert winner is not None and winner.strategy == plan.strategy
        engine.execute(plan)
        record = engine.plan_log(1)[0]
        assert record.strategy == plan.strategy
        assert record.candidates == plan.candidates
        assert record.cost_estimate == plan.cost_estimate


def test_advisor_budget_beats_materialize_nothing(
    benchmark, mixed, summary, scale, monkeypatch
):
    graph, full_views, _, _ = mixed
    monkeypatch.setattr("repro.engine.advisor.ADVISOR_INTERVAL", 4)
    # Hot queries answerable from small extensions: once the advisor
    # materializes those views, MatchJoin wins decisively.
    hot = _small_view_patterns(full_views)

    def cold_views():
        return ViewSet(full_views.definitions())

    # Materialize-nothing baseline: same adaptive planner, no advisor.
    # With every view cold, matchjoin candidates carry the
    # materialization penalty, so this engine pays direct every time.
    nothing = _engine(cold_views(), graph, planner="adaptive")
    # Advised engine: 15% |G| byte budget, ticking as answers flow.
    advised = _engine(
        cold_views(),
        graph,
        planner="adaptive",
        auto_materialize=0.15,
    )
    advisor = advised.advisor
    budget = advisor.budget_bytes()
    assert budget <= 0.15 * advisor.graph_bytes() + 1

    # Prime: two passes feed the plan log; every tick must respect the
    # byte budget (the accounting assertion of the gate).
    for _ in range(2):
        for query in hot:
            nothing.answer(query)
            advised.answer(query)
            assert advisor.used_bytes() <= budget, (
                f"advisor exceeded budget: {advisor.used_bytes()} > {budget}"
            )
    for _ in range(3):
        advisor.tick()
        assert advisor.used_bytes() <= budget

    # Correctness at every scale: advised answers == baseline answers.
    for query in hot:
        a = advised.answer(query)
        b = nothing.answer(query)
        for edge in query.edges():
            assert a.matches_of(edge) == b.matches_of(edge)

    times = _measure_all(
        {"nothing": nothing, "advised": advised}, hot * 2
    )
    t_nothing, t_advised = times["nothing"], times["advised"]
    once(benchmark, lambda: [advised.answer(q) for q in hot])
    assert advisor.used_bytes() <= budget

    summary["advisor"] = {
        "budget_bytes": budget,
        "used_bytes": advisor.used_bytes(),
        "graph_bytes": advisor.graph_bytes(),
        "ticks": advisor.ticks,
        "hot_seconds_materialize_nothing": t_nothing,
        "hot_seconds_advised": t_advised,
        "speedup": t_nothing / t_advised if t_advised else None,
    }
    if scale >= RATIO_SCALE:
        assert advisor.used_bytes() > 0, (
            "advisor materialized nothing under the budget"
        )
        assert t_nothing / t_advised >= 1.5, (
            f"advised only {t_nothing / t_advised:.2f}x materialize-nothing "
            "(need >= 1.5x)"
        )
