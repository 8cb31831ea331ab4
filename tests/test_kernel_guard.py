"""One id-space Match kernel, one dispatch seam: source guards.

``compact_maximum_simulation`` and psim's ``_local_fixpoint`` used to be
the same lazy-counter, batched-removal loop written twice, and backend
choice was made by ``sys.modules`` probes for the shard layer.  Both are
now one thing each (``simulation.compact_engine.witness_fixpoint`` and
``simulation.simulation.evaluate``); these guards keep a second copy
from appearing.  The array form of the whole-graph case
(``simulation.array_engine``: Match and BMatch) shares none of the
counter loop, runs the one bounded edge worklist over masks, and is the
one place NumPy may be imported -- lazily, behind the one helper both
its entry points go through, so processes that never run it never load
it.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

KERNEL = "simulation/compact_engine.py"
BOUNDED_KERNEL = "simulation/compact_bounded.py"
ARRAY_KERNEL = "simulation/array_engine.py"
#: The dict-backend reference engine keeps its own eager counters.
DICT_REFERENCE = "simulation/simulation.py"


def _files_matching(pattern: str):
    found = re.compile(pattern)
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if found.search(path.read_text())
    }


def test_kernel_counter_loop_exists_in_exactly_one_file():
    # The witness pass (``isdisjoint`` per candidate) and the lazy
    # counter read (``edge_counter.get``) are the id-space kernel's
    # signature moves.
    assert _files_matching(r"\.isdisjoint\b") == {KERNEL}
    assert _files_matching(r"edge_counter\.get\(") == {KERNEL}
    assert _files_matching(r"\bedge_counter\b") == {KERNEL, DICT_REFERENCE}
    for gone in (
        "compact_maximum_simulation", "_local_fixpoint", "refine_batch",
        "_local_edge_matches", "compact_edge_matches",
    ):
        assert not _files_matching(rf"\b{gone}\b"), gone


def test_numpy_is_imported_in_one_file_and_only_inside_a_function():
    assert _files_matching(r"(?m)^\s*(import|from)\s+numpy\b") == {ARRAY_KERNEL}
    tree = ast.parse((SRC / ARRAY_KERNEL).read_text())

    def numpy_imports(root):
        for node in ast.walk(root):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                yield node

    inside = [
        scope.name
        for scope in ast.walk(tree)
        if isinstance(scope, ast.FunctionDef)
        for node in numpy_imports(scope)
    ]
    assert inside == ["_numpy_for"] and len(list(numpy_imports(tree))) == 1
    # ... the helper both entry points ask, and nothing else does.
    text = (SRC / ARRAY_KERNEL).read_text()
    assert len(re.findall(r"= _numpy_for\(graph\)", text)) == 2
    assert len(re.findall(r"^def array_\w*match\(", text, re.M)) == 2


def test_array_kernels_never_convert_element_by_element():
    # Array-native from seed to answer: the int32 edge columns become
    # index-width arrays in one helper, the only Python iteration left
    # in seeding is over the set an inexact condition falls back to,
    # id rows leave as one buffer copy, and the packager is the
    # kernels' own -- ``decode_outcome`` (per-element ``map(decode)``)
    # is the set kernel's and the shard layer's.
    text = (SRC / ARRAY_KERNEL).read_text()
    assert len(re.findall(r"dtype=np\.int32\b", text)) == 1
    (helper,) = [
        ast.get_source_segment(text, node)
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and node.name == "_edge_indices"
    ]
    assert "dtype=np.int32" in helper  # ... in the shared column helper
    assert len(re.findall(r"np\.fromiter\(", text)) <= 1
    assert not re.search(r"np\.fromiter\((?!found\b)", text)
    assert ".tobytes(" not in text
    for gone in ("decode_outcome", "_survivors", "_q_column"):
        assert gone not in text, gone
    # ... and that packager stays free of NumPy.
    assert "np." not in (SRC / KERNEL).read_text()


def test_bounded_edge_worklist_exists_in_exactly_one_file():
    # The versioned cone cache is the worklist's signature move; the
    # array kernel hands its masks to the same loop.
    assert _files_matching(r"\bcones\.get\(") == {BOUNDED_KERNEL}
    assert _files_matching(r"\bbounded_worklist\b") == {
        BOUNDED_KERNEL, ARRAY_KERNEL,
    }
    assert _files_matching(r"repro_bounded_\w+_total") == {BOUNDED_KERNEL}


def test_dispatch_never_probes_sys_modules_for_the_shard_layer():
    assert not _files_matching(r"sys\.modules\.get\(\s*[\"']repro\.shard")
    # ... and the entry points name no backend: the one isinstance
    # branch on a snapshot class lives in the dispatch function.
    for entry in ("simulation/bounded.py", "views/view.py"):
        text = (SRC / entry).read_text()
        assert not re.search(r"isinstance\([^)]*(CompactGraph|ShardedGraph)", text), entry
    dispatch = (SRC / DICT_REFERENCE).read_text()
    assert len(re.findall(r"isinstance\(graph, CompactGraph\)", dispatch)) == 1
