"""The QueryEngine on the synthetic dataset: plans, caches, batches.

Builds the synthetic graph and its 22-view suite (the paper's Section
VII synthetic setup, scaled down), then demonstrates the engine layer:

1. **plan inspection** -- why a query runs MatchJoin over views versus
   direct simulation on G;
2. **warm-cache reuse** -- a repeated batch is answered entirely from
   the LRU answer cache;
3. **one-at-a-time answers** -- the same queries answered singly by a
   fresh engine agree with the batch.

Run:  python examples/engine_batch.py
"""

from time import perf_counter

from repro import QueryEngine
from repro.datasets import random_graph
from repro.datasets.patterns import generate_views, query_from_views


def build_workload():
    graph = random_graph(3000, 6000, seed=17)
    views = generate_views(tuple(f"l{i}" for i in range(10)), 22, seed=17)
    views.materialize(graph)
    queries = [
        query_from_views(views, nodes, edges, seed=seed)
        for seed, (nodes, edges) in enumerate(
            [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (4, 4), (6, 6), (4, 6)]
        )
    ]
    return graph, views, queries


def main() -> None:
    graph, views, queries = build_workload()
    print(
        f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges; "
        f"views: {views.cardinality} (extensions "
        f"{views.extension_fraction(graph):.1%} of |G|)"
    )

    engine = QueryEngine(views, graph=graph, selection="minimal")

    # 1. Plan inspection: containment runs once, the plan is reusable.
    plan = engine.plan(queries[0])
    print("\nplan for query 0:")
    print(plan.explain())

    # 2. Cold batch, then the same batch against a warm cache.
    started = perf_counter()
    cold = engine.answer_batch(queries)
    cold_s = perf_counter() - started
    started = perf_counter()
    warm = engine.answer_batch(queries)
    warm_s = perf_counter() - started
    hits = sum(r.stats.cache_hit for r in warm)
    print(
        f"\ncold batch: {len(cold)} queries in {cold_s * 1e3:.1f} ms "
        f"(strategies: {sorted({r.stats.strategy for r in cold})})"
    )
    print(
        f"warm batch: {hits}/{len(warm)} cache hits in {warm_s * 1e3:.1f} ms "
        f"({cold_s / max(warm_s, 1e-9):.0f}x faster)"
    )

    # 3. The same queries one at a time on a fresh engine (cold caches).
    single_engine = QueryEngine(views, graph=graph)
    started = perf_counter()
    single = [single_engine.answer(query) for query in queries]
    single_s = perf_counter() - started
    print(f"one at a time: {len(single)} queries in {single_s * 1e3:.1f} ms")

    for a, b, c in zip(cold, warm, single):
        assert a.edge_matches == b.edge_matches == c.edge_matches
    print("\nall three executions agree; cache stats:")
    for name, counters in engine.cache_stats().items():
        print(
            f"  {name}: {counters['hits']} hits, {counters['misses']} misses"
        )


if __name__ == "__main__":
    main()
