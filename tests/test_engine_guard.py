"""The engine's three-part shape, checked on the source.

``QueryEngine`` used to be one 1,695-line class that owned the state,
planned under its lock and answered; it is now a
:class:`~repro.engine.catalog.Catalog` that owns state, a planner that
is a pure function of it, and a runtime that answers.  These guards
keep the seams from silting up again: file sizes, the constructor's
width, what the planner may import, and the paths that used to exist
twice (answer keys, spec builders, the thread executor, the
subscribe channel).
"""

import ast
import inspect
import re
from pathlib import Path

import repro
from repro.engine.engine import QueryEngine
from repro.engine.executor import EXECUTORS
from repro.shard.psim import SHARD_EXECUTORS
from repro.views.maintenance import IncrementalViewSet

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
    assert len(parameters) - 1 <= 12, parameters  # minus ``self``
    for gone in (
        "containment_cache_size", "cost_model", "advisor_budget_bytes",
        "advisor_interval", "shared_snapshots",
    ):
        assert gone not in parameters


def test_planner_is_a_pure_function_of_its_state():
    for name in ("planner.py", "pricing.py"):
        source = (ENGINE / name).read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert "threading" not in imported, name
        assert not {
            module for module in imported
            if module.startswith(("repro.engine.engine", "repro.graph.digraph"))
        }, name
        assert "_lock" not in source, name


def test_one_answer_key_and_one_spec_builder():
    sources = _sources("engine", "serve")
    names = [name for source in sources.values() for name in _function_names(source)]
    assert names.count("key_material") == 1
    constructed = [
        path.name for path, source in sources.items()
        if re.search(r"\bEvaluationSpec\(", source)
    ]
    assert constructed == ["executor.py"]
    assert sources[ENGINE / "executor.py"].count("EvaluationSpec(") == 1
    for gone in (
        "_spec_from", "_spec_for", "_answer_key", "_key_material",
        "_current_key", "_on_maintenance_event", "_refresh_if_dirty",
    ):
        assert gone not in names, gone


def test_removed_paths_stay_removed():
    assert "thread" not in EXECUTORS and "thread" not in SHARD_EXECUTORS
    assert not hasattr(IncrementalViewSet, "subscribe")
    everything = "\n".join(
        path.read_text() for path in SRC.rglob("*.py")
    )
    for gone in (
        "MaintenanceEvent", "REASON_ALIASES", "shared_snapshots",
        "_thread_pool", "ThreadPoolExecutor(max_workers=self.workers)",
        "unsubscribe", "_notify",
    ):
        assert gone not in everything, gone
    for path in ("engine/executor.py", "shard/psim.py", "shard/materialize.py"):
        assert "ThreadPoolExecutor" not in (SRC / path).read_text(), path
