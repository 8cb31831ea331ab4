"""Tests for the observability layer (``repro.obs``) and its hooks.

Covers the metrics registry primitives (bucket boundaries, labels,
snapshot/Prometheus rendering, no-op mode), trace span nesting and
propagation across threads and process executors (worker spans reattach
to the right parent), the engine's plan-choice telemetry against
``QueryPlan.explain()``, and metrics surviving a serving epoch swap.
"""

import asyncio
import dataclasses
import logging
import threading

import pytest

from repro import QueryEngine
from repro.engine.plan import PLAN_RECORD_VERSION
from repro.errors import ServerOverloadedError
from repro.obs import trace
from repro.obs.logsetup import StructuredFormatter, install, log_fields
from repro.obs.metrics import (
    DURATION_BUCKETS,
    MetricsRegistry,
    get_registry,
    log_buckets,
    set_registry,
)
from repro.obs.trace import TraceCollector, format_span_tree
from repro.serve import QueryServer
from repro.shard import ShardedGraph, make_partition
from repro.shard.psim import partial_max_simulation
from repro.views import Delta, ViewDefinition, ViewSet
from repro.views.maintenance import IncrementalViewSet

from helpers import build_graph, build_pattern


def _graph():
    return build_graph(
        {1: "A", 2: "B", 3: "C", 4: "B", 5: "A", 6: "C"},
        [(1, 2), (2, 3), (1, 4), (4, 3), (5, 4), (4, 6), (3, 6)],
    )


def _definitions():
    return [
        ViewDefinition(
            "V1", build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        ),
        ViewDefinition(
            "V2", build_pattern({"b": "B", "c": "C"}, [("b", "c")])
        ),
    ]


#: Covered by V1 + V2 (matchjoin), V1 only, V2 only -- distinct
#: fingerprints so serving tests can avoid unintended coalescing.
ABC = build_pattern({"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")])
AB = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
BC = build_pattern({"x": "B", "y": "C"}, [("x", "y")])


@pytest.fixture
def graph():
    return _graph()


@pytest.fixture
def views(graph):
    vs = ViewSet(_definitions())
    vs.materialize(graph)
    return vs


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestHistogramBuckets:
    def test_log_buckets_geometric(self):
        buckets = log_buckets(1e-6, 4.0, 5)
        assert list(buckets) == pytest.approx(
            [1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4]
        )

    def test_log_buckets_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 4.0, 5)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            log_buckets(1.0, 4.0, 0)

    def test_boundaries_are_inclusive_upper_bounds(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", boundaries=[1.0, 10.0, 100.0])
        for value in (0.5, 1.0):  # both land in the first bucket
            hist.observe(value)
        hist.observe(10.0)    # second bucket, inclusive
        hist.observe(10.1)    # third bucket
        hist.observe(1000.0)  # +Inf overflow slot
        assert hist.bucket_counts() == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(0.5 + 1.0 + 10.0 + 10.1 + 1000.0)

    def test_duration_buckets_span_microseconds_to_minutes(self):
        assert DURATION_BUCKETS[0] == pytest.approx(1e-6)
        assert DURATION_BUCKETS[-1] > 60

    def test_prometheus_rendering_is_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", boundaries=[1.0, 2.0])
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        text = reg.render_prometheus()
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="2.0"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text

    def test_one_type_comment_per_family(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path="a").inc()
        reg.counter("c_total", path="b").inc()
        text = reg.render_prometheus()
        assert text.count("# TYPE c_total counter") == 1
        assert 'c_total{path="a"} 1' in text
        assert 'c_total{path="b"} 1' in text


class TestRegistry:
    def test_labels_key_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", path="a")
        b = reg.counter("c_total", path="b")
        assert a is not b
        assert a is reg.counter("c_total", path="a")
        a.inc(3)
        snapshot = reg.snapshot()
        assert snapshot["counters"]["c_total"]['{path="a"}'] == 3
        assert snapshot["counters"]["c_total"]['{path="b"}'] == 0

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_snapshot_is_versioned(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["version"] == 1
        assert snapshot["enabled"] is True

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c_total").inc()
        reg.gauge("g").set(5)
        reg.histogram("h", boundaries=[1.0]).observe(2.0)
        snapshot = reg.snapshot()
        assert snapshot["enabled"] is False
        assert not snapshot["counters"]
        assert not snapshot["histograms"]

    def test_default_registry_is_injectable(self):
        original = get_registry()
        try:
            mine = MetricsRegistry()
            assert set_registry(mine) is original
            assert get_registry() is mine
        finally:
            set_registry(original)


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_without_root_is_passthrough(self):
        assert trace.current_span() is None
        with trace.span("orphan") as current:
            assert current is None
        assert trace.current_span() is None
        assert trace.current_span_id() is None

    def test_nesting_builds_a_tree(self):
        collector = TraceCollector()
        with trace.root_span("root", collector=collector):
            with trace.span("child-1"):
                with trace.span("grandchild"):
                    pass
            with trace.span("child-2", tag="x"):
                pass
        (tree,) = collector.recent()
        assert tree["name"] == "root"
        names = [child["name"] for child in tree["children"]]
        assert names == ["child-1", "child-2"]
        assert tree["children"][0]["children"][0]["name"] == "grandchild"
        assert tree["children"][1]["attrs"] == {"tag": "x"}

    def test_thread_propagation_via_attach(self):
        from concurrent.futures import ThreadPoolExecutor

        collector = TraceCollector()
        with trace.root_span("root", collector=collector):
            parent = trace.current_span()

            def work(index):
                # Pool threads do not inherit the contextvar.
                assert trace.current_span() is None
                with trace.attach(parent):
                    with trace.span("task", index=index):
                        pass

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(3)))
        (tree,) = collector.recent()
        tasks = [c for c in tree["children"] if c["name"] == "task"]
        assert sorted(t["attrs"]["index"] for t in tasks) == [0, 1, 2]

    def test_remote_record_adoption_validates_parent(self):
        with trace.root_span("root") as root:
            with trace.remote_span("worker", root.span_id) as remote:
                with trace.span("inner"):
                    pass
            record = remote.to_record(root.span_id)
            root.adopt(record)
            with pytest.raises(ValueError):
                root.adopt(dataclasses.replace(record, parent_id="bogus"))
        tree = root.to_dict()
        workers = [c for c in tree["children"] if c["name"] == "worker"]
        assert len(workers) == 1
        assert workers[0]["remote"] is True
        assert workers[0]["children"][0]["name"] == "inner"

    def test_format_span_tree_renders_nesting(self):
        collector = TraceCollector()
        with trace.root_span("root", collector=collector):
            with trace.span("child"):
                pass
        rendered = format_span_tree(collector.recent()[0])
        assert "root" in rendered and "`- child" in rendered

    def test_collector_ring_and_slowlog(self):
        collector = TraceCollector(capacity=2, slow_capacity=8)
        for index in range(4):
            with trace.root_span("r", index=index, collector=collector):
                pass
        assert collector.recorded == 4
        recent = collector.recent()
        assert len(recent) == 2  # ring evicted the oldest
        assert [t["attrs"]["index"] for t in recent] == [3, 2]
        assert len(collector.slowest()) == 4  # slow log kept all


# ----------------------------------------------------------------------
# Executor propagation (engine + shards)
# ----------------------------------------------------------------------
class TestExecutorPropagation:
    def _batch(self, views, graph, executor):
        collector = TraceCollector()
        engine = QueryEngine(views, graph=graph, registry=MetricsRegistry())
        with trace.root_span("batch", collector=collector):
            engine.answer_batch([ABC, AB], executor=executor, workers=2)
        (tree,) = collector.recent()
        return tree

    def _find(self, tree, name):
        found = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if node["name"] == name:
                found.append(node)
            stack.extend(node["children"])
        return found

    def test_serial_executor_emits_task_spans(self, views, graph):
        tree = self._batch(views, graph, "serial")
        batch = self._find(tree, "evaluate.batch")
        assert batch, format_span_tree(tree)
        tasks = self._find(batch[0], "evaluate.task")
        assert len(tasks) == 2
        assert all(not t["remote"] for t in tasks)

    def test_process_executor_merges_remote_records(self, views, graph):
        tree = self._batch(views, graph, "process")
        tasks = self._find(tree, "evaluate.task")
        assert len(tasks) == 2, format_span_tree(tree)
        assert all(t["remote"] for t in tasks)
        assert all(t["attrs"]["pid"] for t in tasks)

    def test_shard_waves_nest_under_psim(self, graph):
        sharded = ShardedGraph(graph, make_partition(graph, 2, "hash"))
        collector = TraceCollector()
        with trace.root_span("shards", collector=collector):
            partial_max_simulation(AB, sharded, executor="serial")
        (tree,) = collector.recent()
        psim = self._find(tree, "psim")
        assert psim, format_span_tree(tree)
        assert psim[0]["attrs"]["shards"] == 2
        assert self._find(psim[0], "psim.wave"), format_span_tree(tree)
        assert self._find(psim[0], "psim.task"), format_span_tree(tree)


# ----------------------------------------------------------------------
# Plan-choice telemetry
# ----------------------------------------------------------------------
class TestPlanChoiceRecords:
    def _engine(self, views, graph):
        return QueryEngine(views, graph=graph, registry=MetricsRegistry())

    def test_record_matches_explain(self, views, graph):
        engine = self._engine(views, graph)
        plan = engine.plan(ABC)
        engine.execute(plan)
        (record,) = engine.plan_log()
        explain = plan.explain()
        assert record.strategy == plan.strategy == "matchjoin"
        assert f"strategy : {record.strategy}" in explain
        assert record.selection == plan.selection
        assert f"selection: {record.selection}" in explain
        assert record.views_used == plan.views_used
        for name in record.views_used:
            assert name in explain
        assert record.bounded == plan.bounded
        assert f"bounded  : {record.bounded}" in explain
        assert not record.cache_hit
        assert set(record.view_sizes) == set(plan.views_used)
        assert all(size > 0 for size in record.view_sizes.values())

    def test_direct_fallback_reason_recorded(self, views, graph):
        uncovered = build_pattern({"x": "C", "y": "A"}, [("x", "y")])
        engine = self._engine(views, graph)
        plan = engine.plan(uncovered)
        engine.execute(plan)
        (record,) = engine.plan_log()
        assert record.strategy == "direct"
        assert record.reason == "not-contained"
        assert f"strategy : direct ({record.reason})" in plan.explain()
        assert record.views_used == ()

    def test_record_to_dict_versioned(self, views, graph):
        engine = self._engine(views, graph)
        engine.execute(engine.plan(ABC))
        payload = engine.plan_log()[0].to_dict()
        assert payload["version"] == PLAN_RECORD_VERSION
        assert payload["fingerprint"]
        assert payload["elapsed_ms"] >= 0

    def test_plan_log_newest_first_and_limited(self, views, graph):
        engine = self._engine(views, graph)
        engine.execute(engine.plan(ABC))
        engine.execute(engine.plan(ABC))  # answer-cache hit
        records = engine.plan_log()
        assert len(records) == 2
        assert records[0].cache_hit and not records[1].cache_hit
        assert engine.plan_log(limit=1) == records[:1]

    def test_engine_counters_accumulate(self, views, graph):
        registry = MetricsRegistry()
        engine = QueryEngine(views, graph=graph, registry=registry)
        engine.execute(engine.plan(ABC))
        engine.execute(engine.plan(ABC))
        counters = registry.snapshot()["counters"]
        assert (
            counters["repro_engine_queries_total"]['{strategy="matchjoin"}']
            == 2
        )
        assert counters["repro_engine_answer_cache_hits_total"][""] == 1
        assert counters["repro_engine_answer_cache_misses_total"][""] == 1


# ----------------------------------------------------------------------
# Serving: epoch swaps, shed reasons, stats consistency
# ----------------------------------------------------------------------
def _make_server(**kwargs):
    graph = _graph()
    definitions = _definitions()
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(
        ViewSet(definitions), graph=graph, registry=MetricsRegistry()
    )
    engine.attach_maintenance(tracker)
    return QueryServer(engine, **kwargs)


class _Gate:
    """Holds every ``_evaluate`` call until released (30s failsafe)."""

    def __init__(self, server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = server._evaluate
        server._evaluate = self._gated

    def _gated(self, spec, epoch):
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("Gate never released")
        return self._original(spec, epoch)


async def _spin_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never held")
        await asyncio.sleep(0.005)


class TestServingObservability:
    def test_metrics_survive_epoch_swap(self):
        async def scenario():
            server = _make_server()
            async with server:
                await server.query(ABC)
                before = server.stats()["metrics"]["counters"]
                await server.update(Delta().insert(5, 2))
                await server.query(ABC)
                after = server.stats()["metrics"]["counters"]
            return before, after

        before, after = asyncio.run(scenario())
        series = '{strategy="matchjoin"}'
        assert before["repro_engine_queries_total"][series] == 1
        # Same registry across the swap: totals accumulate, not reset.
        assert after["repro_engine_queries_total"][series] == 2
        assert after["repro_server_epoch_swaps_total"][""] == 1
        assert (
            after["repro_server_requests_total"]['{outcome="completed"}'] == 2
        )

    def test_request_trace_has_complete_span_tree(self):
        async def scenario():
            server = _make_server()
            async with server:
                await server.query(ABC)
            return server.traces.recent(1)[0], server.engine.plan_log(1)[0]

        tree, record = asyncio.run(scenario())
        assert tree["name"] == "server.query"
        assert tree["attrs"]["epoch"] == 0
        assert tree["attrs"]["outcome"] == "evaluated"
        assert "queue_wait_ms" in tree["attrs"]
        names = {child["name"] for child in tree["children"]}
        assert {"plan", "evaluate"} <= names, format_span_tree(tree)
        # The plan-choice record and the trace tell the same story.
        assert record.strategy == tree["attrs"]["strategy"]

    def test_update_trace_attributes_the_whole_root(self, tmp_path):
        async def scenario():
            server = _make_server(persist_path=tmp_path / "snap")
            async with server:
                await server.query(ABC)
                await server.update(Delta().insert(5, 2))
            return server.traces.recent(1)[0]

        tree = asyncio.run(scenario())
        assert tree["name"] == "server.update"
        children = {child["name"]: child for child in tree["children"]}
        assert list(children) == [
            "dispatch", "apply", "checkpoint", "persist", "resume", "swap",
        ], format_span_tree(tree)
        assert children["swap"]["attrs"]["dropped"] == 1
        assert [c["name"] for c in children["apply"]["children"]] == [
            "maintenance.delta"
        ]
        attributed = sum(child["duration_ms"] for child in children.values())
        assert attributed >= 0.9 * tree["duration_ms"], format_span_tree(tree)

    def test_wire_bytes_follow_the_answer_cache(self):
        async def scenario():
            server = _make_server()
            gauge = server.engine.registry.gauge("repro_server_wire_bytes")
            readings = []

            def read():
                cached = server.stats()["caches"]["served_answers"]["bytes"]
                assert cached == gauge.value
                readings.append(cached)

            async with server:
                await server.query(ABC)  # in process: nothing encoded
                read()
                first = await server.query(ABC, wire=True)
                read()
                second = await server.query(AB, wire=True)
                read()
                await server.update(Delta().insert(5, 2))  # strands both
                read()
                attrs = [t["attrs"] for t in server.traces.recent(4)[1:]]
            return readings, first, second, attrs

        readings, first, second, attrs = asyncio.run(scenario())
        assert readings == [
            0, len(first.wire), len(first.wire) + len(second.wire), 0,
        ]
        # Newest first: AB evaluated, ABC hit (encoded late), ABC evaluated.
        assert [(a["resolved"], a.get("wire")) for a in attrs] == [
            ("planned", "encoded"), ("memo", "encoded"), ("planned", None),
        ]

    def test_traces_land_in_slow_log(self):
        async def scenario():
            server = _make_server()
            async with server:
                await server.query(ABC)
                await server.query(AB)
            return server.traces

        traces = asyncio.run(scenario())
        assert traces.recorded == 2
        slowest = traces.slowest()
        assert len(slowest) == 2
        assert slowest[0]["duration_ms"] >= slowest[1]["duration_ms"]

    def test_shed_reason_inflight_full(self):
        async def scenario():
            server = _make_server(max_inflight=1, max_queue=0)
            async with server:
                gate = _Gate(server)
                first = asyncio.ensure_future(server.query(AB))
                await _spin_until(
                    lambda: server.stats()["requests"]["inflight"] == 1
                )
                with pytest.raises(ServerOverloadedError):
                    await server.query(BC)
                gate.release.set()
                await first
                return server.stats()

        stats = asyncio.run(scenario())
        requests = stats["requests"]
        assert requests["shed"] == 1
        assert requests["shed_inflight_full"] == 1
        assert requests["shed_queue_full"] == 0
        shed = stats["metrics"]["counters"]["repro_server_shed_total"]
        assert shed['{reason="inflight-full"}'] == 1

    def test_shed_reason_queue_full(self):
        async def scenario():
            server = _make_server(max_inflight=1, max_queue=1)
            async with server:
                gate = _Gate(server)
                first = asyncio.ensure_future(server.query(AB))
                await _spin_until(gate.entered.is_set)
                # A second, distinct query parks in the queue.
                second = asyncio.ensure_future(server.query(BC))
                await _spin_until(
                    lambda: server.stats()["requests"]["admitted"] == 2
                )
                with pytest.raises(ServerOverloadedError):
                    await server.query(ABC)
                gate.release.set()
                await asyncio.gather(first, second)
                return server.stats()

        stats = asyncio.run(scenario())
        requests = stats["requests"]
        assert requests["shed"] == 1
        assert requests["shed_queue_full"] == 1
        assert requests["shed_inflight_full"] == 0
        shed = stats["metrics"]["counters"]["repro_server_shed_total"]
        assert shed['{reason="queue-full"}'] == 1

    def test_coalescing_owner_and_followers_counted(self):
        async def scenario():
            server = _make_server()
            async with server:
                gate = _Gate(server)
                futures = [
                    asyncio.ensure_future(server.query(AB)) for _ in range(4)
                ]
                await _spin_until(
                    lambda: server.stats()["requests"]["coalesced"] == 3
                )
                gate.release.set()
                await asyncio.gather(*futures)
                return server.stats()["requests"]

        requests = asyncio.run(scenario())
        assert requests["coalesce_owners"] == 1
        assert requests["coalesced"] == 3
        assert requests["evaluated"] == 1


# ----------------------------------------------------------------------
# Logging setup
# ----------------------------------------------------------------------
class TestLogging:
    def test_structured_formatter_renders_fields(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("x",), None
        )
        record.fields = {"epoch": 3}
        line = StructuredFormatter().format(record)
        assert 'msg="hello x"' in line
        assert "level=info" in line
        assert "logger=repro.test" in line
        assert "epoch=3" in line

    def test_install_is_idempotent(self):
        logger = logging.getLogger("repro-obs-test")
        try:
            install("debug", logger_name="repro-obs-test")
            install("debug", logger_name="repro-obs-test")
            structured = [
                h for h in logger.handlers
                if getattr(h, "_repro_structured", False)
            ]
            assert len(structured) == 1
        finally:
            logger.handlers.clear()

    def test_install_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            install("verbose", logger_name="repro-obs-test")

    def test_library_modules_have_namespaced_loggers(self):
        import repro.core.matchjoin as matchjoin
        import repro.serve.server as server
        import repro.shard.psim as psim

        for module in (matchjoin, server, psim):
            assert module.log.name.startswith("repro.")

    def test_library_installs_no_handlers(self):
        import repro  # noqa: F401  (import side effects are the point)

        assert not logging.getLogger("repro").handlers

    def test_log_fields_helper(self):
        extra = log_fields(epoch=1, reason="queue-full")
        assert extra == {"fields": {"epoch": 1, "reason": "queue-full"}}
