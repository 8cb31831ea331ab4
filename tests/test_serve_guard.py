"""The serving layer's lock rule, checked on the source.

Nothing on the event loop may take the engine lock: maintenance holds
it for a whole batch, so a loop that waits for it freezes every
connection (``tests/test_serve.py::TestLockRule`` shows the behaviour;
this keeps the code shaped so it cannot regress unnoticed).  In
``serve/server.py`` the two engine calls that lock -- ``plan`` and
``record_plan_choice`` -- may appear only in synchronous methods that
are handed to ``run_in_executor``, never called directly.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
LOCKING = {"plan", "record_plan_choice"}


def _is_self_attr(node, name=None):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name is None or node.attr == name)
    )


def test_engine_lock_is_only_taken_in_pool_threads():
    tree = ast.parse((SRC / "serve" / "server.py").read_text())
    pool_side = set()
    called = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOCKING
                and _is_self_attr(node.func.value, "_engine")
            ):
                assert isinstance(function, ast.FunctionDef), (
                    f"engine.{node.func.attr} called in coroutine "
                    f"{function.name} (line {node.lineno}): it takes the "
                    f"engine lock and must ride a pool hop"
                )
                pool_side.add(function.name)
                called.add(node.func.attr)
    assert called == LOCKING, f"guard is stale: found only {sorted(called)}"

    # Every mention of a pool-side method is as a run_in_executor argument.
    handed_over = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run_in_executor"
        ):
            handed_over.update(id(arg) for arg in node.args)
    for node in ast.walk(tree):
        if _is_self_attr(node) and node.attr in pool_side:
            assert id(node) in handed_over, (
                f"self.{node.attr} (line {node.lineno}) takes the engine "
                f"lock; pass it to run_in_executor instead of calling it"
            )

    source = (SRC / "serve" / "server.py").read_text()
    assert "_engine._lock" not in source


def test_one_resolution_and_one_reply_encoding():
    server = (SRC / "serve" / "server.py").read_text()
    # Derived once per (epoch, query) in _resolve, not once per request.
    assert server.count("self._spec_from(") == 1
    assert server.count("self._answer_key(") == 1
    # Replies are spliced from the cached fragment; the dict-then-dumps
    # encoder lives on only as the reference in tests/test_serve.py.
    for path in (SRC / "serve").glob("*.py"):
        assert "_encode_answer" not in path.read_text(), path.name
