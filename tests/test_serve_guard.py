"""The serving layer's lock rule, checked on the source.

Nothing on the event loop may take the catalog lock: maintenance holds
it for a whole batch, so a loop that waits for it freezes every
connection (``tests/test_serve.py::TestLockRule`` shows the behaviour;
this keeps the code shaped so it cannot regress unnoticed).  A request
plans and evaluates on the checkpoint it pinned, so ``serve/server.py``
never calls ``engine.plan`` at all; the one engine call that may lock --
``record_plan_choice``, for an advisor tick -- may appear only in
synchronous methods that are handed to ``run_in_executor``, never
called directly.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
LOCKING = {"record_plan_choice"}
#: Engine calls that plan on the *live* catalog under its lock.
FORBIDDEN = {"plan", "answer", "execute", "answer_batch"}


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
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _is_self_attr(node.func.value, "_engine")
            ):
                continue
            assert node.func.attr not in FORBIDDEN, (
                f"engine.{node.func.attr} called in {function.name} "
                f"(line {node.lineno}): requests plan and evaluate on "
                f"the epoch they pinned, never on the live catalog"
            )
            if node.func.attr in LOCKING:
                assert isinstance(function, ast.FunctionDef), (
                    f"engine.{node.func.attr} called in coroutine "
                    f"{function.name} (line {node.lineno}): it may take "
                    f"the catalog lock and must ride a pool hop"
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
                f"self.{node.attr} (line {node.lineno}) may take the "
                f"catalog lock; pass it to run_in_executor instead of "
                f"calling it"
            )

    source = (SRC / "serve" / "server.py").read_text()
    assert "_engine._lock" not in source
    assert "_engine.catalog" not in source


def test_one_resolution_and_one_reply_encoding():
    server = (SRC / "serve" / "server.py").read_text()
    # Planned once per (epoch, query) in _resolve, on the pinned
    # checkpoint; the spec is a projection of that plan, built by the
    # one evaluation that needs it.
    assert server.count("self._engine.plan_on(") == 1
    assert server.count("spec_of(") == 1
    # Replies are spliced from the cached fragment; the dict-then-dumps
    # encoder lives on only as the reference in tests/test_serve.py.
    for path in (SRC / "serve").glob("*.py"):
        assert "_encode_answer" not in path.read_text(), path.name
