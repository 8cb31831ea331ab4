"""``batch_views`` and ``batch_direct``: in-process ``QueryEngine.answer``
over the Fig. 8(a-c) stand-ins, from materialised views or directly.

The two workloads share graphs, queries and op order and differ in one
thing: the view catalog is the dataset's suite or empty.  With views
every query is contained and runs MatchJoin without touching ``G``;
without, every query is direct ``Match``/``BMatch`` on the frozen graph.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.bench.workloads import AMAZON_SIZES, CITATION_SIZES, YOUTUBE_SIZES
from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.core.bounded.bminimum import bounded_minimum_views
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.datasets import (
    amazon_graph,
    amazon_views,
    citation_graph,
    citation_views,
    query_from_views,
    youtube_graph,
    youtube_views,
)
from repro.engine import QueryEngine
from repro.graph.flatbuf import SharedCompactGraph
from repro.graph.io import pattern_from_json, pattern_to_json
from repro.graph.pattern import BoundedPattern
from repro.views.flatpack import FlatExtension
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition

from perf.calibrate import SLICE_LIMIT_S, cut_slices
from perf.harness import Config, Samples, bytes_backend, p50_tail, self_rss_mb
from perf.oracle import Oracle, direct_match, graph_digest

#: The stand-ins are the paper's datasets, not inputs to vary: their
#: generator seed is part of the workload, as in ``repro.bench``.
DATASET_SEED = 11
QUERY_SEEDS = range(12)
REPLAY_REPS = 3


def _bounded_citation_views() -> ViewSet:
    return ViewSet(
        ViewDefinition(f"{d.name}@2", d.pattern.bounded(default=2))
        for d in citation_views()
    )


class Dataset(NamedTuple):
    name: str
    graph: str  # key into the generated graphs
    views: Callable[[], ViewSet]
    sizes: List[Tuple[int, int]]


GRAPHS = {
    "amazon": (amazon_graph, 30_000, 90_000),
    "citation": (citation_graph, 25_000, 60_000),
    "youtube": (youtube_graph, 30_000, 85_000),
}
DATASETS = [
    Dataset("amazon", "amazon", amazon_views, AMAZON_SIZES),
    Dataset("citation", "citation", citation_views, CITATION_SIZES),
    Dataset("youtube", "youtube", youtube_views, YOUTUBE_SIZES),
    Dataset("citation@2", "citation", _bounded_citation_views, CITATION_SIZES),
]


def flat_view_bytes(engine: QueryEngine) -> int:
    """Bytes of the engine's extensions once packed as flat buffers."""
    with bytes_backend():
        flat = SharedCompactGraph.share(engine.snapshot())
        return sum(
            FlatExtension.pack(flat, extension.compact).store.total_bytes
            for extension in engine.views.extensions().values()
        )


class Batch:
    min_passes = 3

    def __init__(self, cfg: Config, use_views: bool) -> None:
        self.cfg = cfg
        self.use_views = use_views
        # A MatchJoin op is a few milliseconds and runs measurably
        # faster or slower depending on which op warmed the caches before
        # it, so each pass takes a fresh seeded order and latencies are
        # pooled; a direct op is too long to care, and its few passes are
        # replicas whose per-op medians shed machine stalls.
        self.replica_passes = not use_views
        self.name = "batch_views" if use_views else "batch_direct"
        # Seconds per pass at reference speed, from sizing runs.
        self.pass_ref_s = 0.14 if use_views else 2.8
        self.graphs: Dict[str, object] = {}
        self.ops: List[Tuple[int, object]] = []  # (dataset index, query)
        self.expected: List[dict] = []
        self.engines: List[QueryEngine] = []
        self.stages: List[Dict[str, float]] = []

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops)

    def samples(self) -> Samples:
        return Samples(self.ops_per_pass, self.replica_passes)

    # -- harness work --------------------------------------------------
    def generate(self) -> None:
        scale = 0.08 if self.cfg.tiny else 1.0
        for key, (factory, nodes, edges) in GRAPHS.items():
            self.graphs[key] = factory(
                int(nodes * scale), int(edges * scale), seed=DATASET_SEED
            )

    def oracle(self) -> None:
        # Answers exist before any engine does: nothing the program
        # builds can reach them.
        oracle = Oracle(self.cfg.out_dir / "oracle-cache")
        states = {key: graph_digest(graph) for key, graph in self.graphs.items()}
        for index, dataset in enumerate(DATASETS):
            views = dataset.views()
            # Per size, the first seed with a non-empty answer; queries
            # are contained in the views by construction.
            for num_nodes, num_edges in dataset.sizes:
                query, answer = oracle.pick(
                    states[dataset.graph],
                    self.graphs[dataset.graph],
                    (
                        query_from_views(views, num_nodes, num_edges, seed=seed)
                        for seed in QUERY_SEEDS
                    ),
                    accept=lambda size: size > 0,
                )
                self.ops.append((index, query))
                self.expected.append(answer)

    # -- the program's set-up ------------------------------------------
    def setup(self, clock) -> Tuple[float, float]:
        """Per dataset: construct the engine, freeze ``G``, materialise
        the views, plan every query once.  One slice per dataset."""
        # ``freeze()`` is cached on the graph, so a repeat needs graphs
        # that were never frozen: the generated ones, then copies.
        fresh = self.graphs if not self.stages else {
            key: graph.copy() for key, graph in self.graphs.items()
        }
        clock.sample()
        engines, total, raw_total = [], 0.0, 0.0
        stages = {"freeze": 0.0, "materialize": 0.0, "plan_cold_ms": []}
        for index, dataset in enumerate(DATASETS):
            queries = [q for i, q in self.ops if i == index]
            factor, raw, (engine, freeze, materialize, plans) = clock.slice(
                lambda: self._build(dataset, fresh[dataset.graph], queries)
            )
            engines.append(engine)
            total += raw * factor
            raw_total += raw
            stages["freeze"] += freeze * factor
            stages["materialize"] += materialize * factor
            stages["plan_cold_ms"] += [s * 1e3 * factor for s in plans]
        self.engines = engines
        self.stages.append(stages)
        return total, raw_total

    def _build(self, dataset: Dataset, graph, queries):
        t0 = perf_counter()
        views = dataset.views() if self.use_views else ViewSet()
        engine = QueryEngine(views, graph=graph, answer_cache_size=0)
        engine.snapshot()
        t1 = perf_counter()
        engine.materialize_views(views.names())
        t2 = perf_counter()
        plans = []
        for query in queries:
            started = perf_counter()
            engine.plan(query)
            plans.append(perf_counter() - started)
        return engine, t1 - t0, t2 - t1, plans

    def sequence(self, rng) -> None:
        self.rng = rng
        self.order = list(range(len(self.ops)))
        rng.shuffle(self.order)

    def warm(self, clock) -> None:
        """One untimed pass for the cost estimates slices are cut by.  A
        direct op is long enough to be a slice of its own, and nothing
        in the direct path warms up, so there the pass is skipped."""
        self.costs = [SLICE_LIMIT_S] * len(self.ops)
        if self.use_views:
            for i, (index, query) in enumerate(self.ops):
                started = perf_counter()
                self.engines[index].answer(query)
                self.costs[i] = perf_counter() - started

    # -- the measured phase --------------------------------------------
    def run_pass(self, clock, samples, tracer) -> None:
        if not self.replica_passes:
            self.rng.shuffle(self.order)
        for start, stop in cut_slices([self.costs[i] for i in self.order]):
            chunk = self.order[start:stop]
            factor, raw, out = clock.slice(lambda: self._run_chunk(chunk, tracer))
            samples.add_slice(factor, raw, [latency for latency, _ in out])
            for i, (_, result) in zip(chunk, out):
                if result.edge_matches != self.expected[i]:
                    samples.failed += 1

    def _run_chunk(self, chunk, tracer):
        out = []
        for i in chunk:
            index, query = self.ops[i]
            engine = self.engines[index]
            started = perf_counter()
            if tracer is None:
                result = engine.answer(query)
                ended = perf_counter()
            else:
                plan = engine.plan(query)
                planned = perf_counter()
                result = engine.execute(plan)
                ended = perf_counter()
                root = tracer.add("engine.answer", started, ended, op=i)
                tracer.add("engine.plan", started, planned, parent=root, op=i)
                tracer.add("engine.execute", planned, ended, parent=root, op=i)
            out.append((ended - started, result))
        return out

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    # -- per-layer attribution (traced run only) ------------------------
    def layers(self, clock) -> Dict[str, float]:
        """Staged replay: each op again as plan -> execute, as the bare
        kernel with the plan's own containment, and as ``answer``."""
        pooled: Dict[str, List[float]] = {}
        kernel_ms, bkernel_ms, overhead_ms = [], [], []
        answer_sum = kernel_sum = direct_sum = 0.0  # ms per pass, op medians
        pairs_in = pairs_out = 0
        clock.sample()
        for index, query in self.ops:
            engine = self.engines[index]
            bounded = isinstance(query, BoundedPattern)
            factor, _, (t, result) = clock.slice(
                lambda: self._replay(engine, query, bounded)
            )
            ms = {key: [v * 1e3 * factor for v in vs] for key, vs in t.items()}
            for key, values in ms.items():
                pooled.setdefault(key, []).extend(values)
            (bkernel_ms if bounded else kernel_ms).extend(ms["kernel"])
            answer_sum += median(ms["answer"])
            kernel_sum += median(ms["kernel"])
            overhead_ms.append(median(ms["answer"]) - median(ms["kernel"]))
            pairs_out += result.result_size
            if self.use_views:
                plan = engine.plan(query)
                pairs_in += sum(
                    engine.views.extension(name).num_pairs for name in plan.views_used
                )
                # One direct pass over the same ops: the Fig. 8 base.
                snapshot = engine.snapshot()
                factor, raw, _ = clock.slice(lambda: direct_match(query, snapshot))
                direct_sum += raw * factor * 1e3

        caches = [e.cache_stats()["containment"] for e in self.engines]
        lookups = sum(c["hits"] + c["misses"] for c in caches)
        layers = {
            "graph.freeze_ms": median([s["freeze"] for s in self.stages]) * 1e3,
            "graph.pattern_decode_ms": median(pooled["decode"]),
            "engine.plan_ms_p50": median(pooled["plan"]),
            "engine.plan_cold_ms_p50": median(
                [ms for s in self.stages for ms in s["plan_cold_ms"]]
            ),
            "engine.execute_ms_p50": median(pooled["execute"]),
            "engine.overhead_ms_p50": median(overhead_ms),
            "engine.containment_cache_hit_ratio": (
                sum(c["hits"] for c in caches) / lookups if lookups else 0.0
            ),
        }
        if self.use_views:
            extension = sum(e.views.extension_size for e in self.engines)
            layers.update({
                "views.materialize_s": median([s["materialize"] for s in self.stages]),
                "views.extension_fraction": (
                    extension / sum(e.graph.size for e in self.engines)
                ),
                "views.flat_bytes": sum(map(flat_view_bytes, self.engines)),
                "core.contain_ms_p50": median(pooled["contain"]),
                "core.minimal_ms_p50": median(pooled["minimal"]),
                "core.minimum_ms_p50": median(pooled["minimum"]),
                "core.matchjoin_ms_p50": median(kernel_ms),
                "core.matchjoin_ms_tail": p50_tail(kernel_ms)["tail"],
                "core.bmatchjoin_ms_p50": median(bkernel_ms),
                "core.matchjoin_share": kernel_sum / answer_sum,
                "core.pairs_in": pairs_in,
                "core.pairs_out": pairs_out,
                "core.useful_pair_ratio": pairs_out / pairs_in,
                "core.view_speedup": direct_sum / answer_sum,
            })
        else:
            layers.update({
                "simulation.match_ms_p50": median(kernel_ms),
                "simulation.match_ms_tail": p50_tail(kernel_ms)["tail"],
                "simulation.bmatch_ms_p50": median(bkernel_ms),
                "simulation.pairs_per_s": pairs_out / (kernel_sum / 1e3),
            })
        return layers

    def _replay(self, engine, query, bounded):
        t: Dict[str, List[float]] = {}

        def timed(key, fn, *args):
            started = perf_counter()
            value = fn(*args)
            t.setdefault(key, []).append(perf_counter() - started)
            return value

        doc = pattern_to_json(query)
        views = engine.views
        # A direct op is ~50x a MatchJoin op: one repetition is enough.
        for _ in range(REPLAY_REPS if self.use_views else 1):
            plan = timed("plan", engine.plan, query)
            timed("execute", engine.execute, plan)
            if self.use_views:
                join = bounded_match_join if bounded else match_join
                result = timed("kernel", join, query, plan.containment, views)
                select = (
                    (bounded_contains, bounded_minimal_views, bounded_minimum_views)
                    if bounded
                    else (contains, minimal_views, minimum_views)
                )
                for key, fn in zip(("contain", "minimal", "minimum"), select):
                    timed(key, fn, query, views)
            else:
                result = timed("kernel", direct_match, query, engine.snapshot())
            timed("answer", engine.answer, query)
            timed("decode", pattern_from_json, doc)
        return t, result

    def close(self) -> None:
        self.engines = []
