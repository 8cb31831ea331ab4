"""The engine's three-part shape, checked on the source.

``QueryEngine`` used to be one 1,695-line class that owned the state,
planned under its lock and answered; it is now a
:class:`~repro.engine.catalog.Catalog` that owns state, a planner that
is a pure function of it, and a runtime that answers.  These guards
keep the seams from silting up again: file sizes, the constructor's
width, what the planner may import, and the paths that used to exist
twice (answer keys, spec builders, the thread executor, the
subscribe channel) or were dropped (the priced planner and advisor, the
process pools and the shared-memory segments only they used, in-memory
partitioning and the sharded refresh).
"""

import ast
import inspect
import re
from pathlib import Path

import repro
from repro.engine.catalog import Catalog
from repro.engine.engine import QueryEngine
from repro.graph.digraph import DataGraph
from repro.shard import psim
from repro.shard.sharded import ShardedGraph
from repro.views.maintenance import IncrementalView, IncrementalViewSet
from repro.views.storage import ViewSet

SRC = Path(repro.__file__).resolve().parent
ENGINE = SRC / "engine"


def _sources(*packages):
    return {
        path: path.read_text()
        for package in packages
        for path in sorted((SRC / package).glob("*.py"))
    }


def _function_names(source: str):
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_engine_file_is_a_monolith():
    for path, source in _sources("engine").items():
        assert source.count("\n") <= 600, path.name


def test_constructor_is_pruned_to_its_traffic():
    parameters = list(inspect.signature(QueryEngine.__init__).parameters)
    assert len(parameters) - 1 <= 6, parameters  # minus ``self``
    for gone in (
        "containment_cache_size", "cost_model", "advisor_budget_bytes",
        "advisor_interval", "shared_snapshots", "planner",
        "auto_materialize", "executor", "workers", "shards", "partitioner",
    ):
        assert gone not in parameters


def test_planner_is_a_pure_function_of_its_state():
    source = (ENGINE / "planner.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "threading" not in imported
    assert not {
        module for module in imported
        if module.startswith(("repro.engine.engine", "repro.graph.digraph"))
    }
    assert "_lock" not in source


def test_one_answer_key_and_one_spec_builder():
    # One evaluation, reading the plan itself: ``executor.evaluate`` is
    # defined once, called once by the engine's batches and once by the
    # server's reader threads, and is the only importer of a kernel.
    sources = _sources("engine", "serve")
    names = [name for source in sources.values() for name in _function_names(source)]
    assert names.count("key_material") == 1
    assert names.count("evaluate") == 1
    called = {
        path.name: len(re.findall(r"(?<![\w.])evaluate\(", source))
        for path, source in sources.items()
        if re.search(r"(?<![\w.])evaluate\(", source)
    }
    assert called == {"executor.py": 2, "server.py": 1}  # def + run_plans; _evaluate
    kernels = [
        path.name for path, source in sources.items()
        if re.search(r"import (match_join|bounded_match_join|match|bounded_match)\b", source)
    ]
    assert kernels == ["executor.py"]
    for gone in (
        "_spec_from", "_spec_for", "_answer_key", "_key_material",
        "_current_key", "_on_maintenance_event", "_refresh_if_dirty",
    ):
        assert gone not in names, gone


def test_removed_paths_stay_removed():
    assert not hasattr(IncrementalViewSet, "subscribe")
    everything = "\n".join(
        path.read_text() for path in SRC.rglob("*.py")
    )
    for gone in (
        "MaintenanceEvent", "REASON_ALIASES", "shared_snapshots",
        "_thread_pool", "ThreadPoolExecutor(max_workers=self.workers)",
        "unsubscribe", "_notify", "adaptive", "auto_materialize",
        "advise_interval", "EvaluationSpec", "spec_of", "evaluate_spec",
        "ships_as_handle", "from_handle", "_attach_store",
    ):
        assert gone not in everything, gone
    for module in ("cost.py", "pricing.py", "advisor.py"):
        assert not (ENGINE / module).exists(), module
    for path in ("engine/executor.py", "shard/psim.py"):
        assert "ThreadPoolExecutor" not in (SRC / path).read_text(), path


def test_evaluation_stays_in_one_process():
    # Serial in-process evaluation is the only path: no pool, no shared
    # memory segment, no backend switch read from the environment.
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for gone in (
        "ProcessPoolExecutor", "multiprocessing", "shared_memory",
        "resource_tracker", "REPRO_FLAT_DIR", "live_segment_names",
        "remote_span", "SpanRecord", "ShardRunner", "ShipStats",
    ):
        hits = [path.name for path, source in sources.items() if gone in source]
        assert not hits, (gone, hits)
    # Two names stay importable from flatbuf for perf/ alone: the
    # backend variable, which nothing reads, and the old snapshot
    # class, an alias nothing under src/ uses.
    for name in ("BACKEND_ENV", "SharedCompactGraph"):
        hits = [path.name for path, source in sources.items() if name in source]
        assert hits == ["flatbuf.py"], (name, hits)
    assert sources[SRC / "graph" / "flatbuf.py"].count("BACKEND_ENV") == 1
    for function in (
        QueryEngine.__init__, QueryEngine.answer_batch, Catalog.__init__,
        psim.sharded_match, psim.sharded_match_with_ids,
        psim.partial_max_simulation,
    ):
        parameters = inspect.signature(function).parameters
        assert not {"executor", "workers", "runner"} & set(parameters), function
    assert "shared" not in inspect.signature(DataGraph.freeze).parameters


def test_sharded_graphs_come_from_ingest_only():
    # Hash placement at ingest is the one way to shard: no in-memory
    # partitioner, no build-from-graph or live refresh of a sharded
    # graph, no engine knob asking for one.  Nor does maintenance have
    # a recompute budget.
    sources = {path: path.read_text() for path in SRC.rglob("*.py")}
    for gone in (
        "make_partition", "PARTITIONERS", "label_partition", "bfs_partition",
        "_local_snapshot", "partitioner=",
    ):
        hits = [path.name for path, source in sources.items() if gone in source]
        assert not hits, (gone, hits)
    assert not hasattr(ShardedGraph, "refreshed")
    assert not hasattr(ShardedGraph, "partition")
    assert list(inspect.signature(ShardedGraph.__init__).parameters)[1:4] == [
        "shards", "own_counts", "boundary",
    ]
    assert "shards" not in inspect.signature(Catalog.__init__).parameters
    for function in (IncrementalView.__init__, IncrementalViewSet.__init__):
        assert "budget" not in inspect.signature(function).parameters, function


def test_maintenance_has_one_owner():
    # One graph: the tracker maintains the graph it is given, in place.
    # One cursor: the engine's catalog holds the tracker, not the
    # ViewSet.  One update: a Delta through ``apply_delta``.
    source = (SRC / "views" / "maintenance.py").read_text()
    assert "graph.copy()" not in source
    tree = ast.parse(source)
    defined = set(_function_names(source)) | {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.args + node.args.kwonlyargs
    }
    for gone in ("insert_edge", "delete_edge", "shared", "as_viewset", "_fan_out"):
        assert gone not in defined, gone
    for gone in (
        "track", "follow", "unfollow", "import_maintenance", "apply_delta",
        "maintenance_pending", "report_stale", "maintenance",
    ):
        assert not hasattr(ViewSet, gone), gone
    hits = [
        path.name for path in SRC.rglob("*.py")
        if "detach_maintenance" in path.read_text()
    ]
    assert not hits, hits
