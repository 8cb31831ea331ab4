"""The serving layer's lock rule, checked on the source.

Nothing on the event loop may take the catalog lock: maintenance holds
it for a whole batch, so a loop that waits for it freezes every
connection (``tests/test_serve.py::TestLockRule`` shows the behaviour;
this keeps the code shaped so it cannot regress unnoticed).  A request
plans and evaluates on the checkpoint it pinned, so ``serve/server.py``
never calls ``engine.plan`` (or anything else that plans on the live
catalog) and never reaches the catalog itself.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
#: Engine calls that plan on the *live* catalog under its lock.
FORBIDDEN = {"plan", "answer", "execute", "answer_batch"}


def test_engine_lock_is_only_taken_in_pool_threads():
    tree = ast.parse((SRC / "serve" / "server.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
            and node.func.value.attr == "_engine"
        ):
            assert node.func.attr not in FORBIDDEN, (
                f"engine.{node.func.attr} called (line {node.lineno}): "
                f"requests plan and evaluate on the epoch they pinned, "
                f"never on the live catalog"
            )
    source = (SRC / "serve" / "server.py").read_text()
    assert "_engine._lock" not in source
    assert "_engine.catalog" not in source


def test_one_resolution_and_one_reply_encoding():
    server = (SRC / "serve" / "server.py").read_text()
    # Planned once per (epoch, query) in _resolve, on the pinned
    # checkpoint; that plan is what the one evaluation runs.
    assert server.count("self._engine.plan_on(") == 1
    assert len(re.findall(r"(?<![\w.])evaluate\(", server)) == 1
    # Replies are spliced from the cached fragment; the dict-then-dumps
    # encoder lives on only as the reference in tests/test_serve.py.
    for path in (SRC / "serve").glob("*.py"):
        assert "_encode_answer" not in path.read_text(), path.name
