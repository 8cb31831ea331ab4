"""One id-space Match kernel, one dispatch seam: source guards.

``compact_maximum_simulation`` and psim's ``_local_fixpoint`` used to be
the same lazy-counter, batched-removal loop written twice, and backend
choice was made by ``sys.modules`` probes for the shard layer.  Both are
now one thing each (``simulation.compact_engine.witness_fixpoint`` and
``simulation.simulation.evaluate``); these guards keep a second copy
from appearing.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

KERNEL = "simulation/compact_engine.py"
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


def test_dispatch_never_probes_sys_modules_for_the_shard_layer():
    assert not _files_matching(r"sys\.modules\.get\(\s*[\"']repro\.shard")
    # ... and the entry points name no backend: the one isinstance
    # branch on a snapshot class lives in the dispatch function.
    for entry in ("simulation/bounded.py", "views/view.py"):
        text = (SRC / entry).read_text()
        assert not re.search(r"isinstance\([^)]*(CompactGraph|ShardedGraph)", text), entry
    dispatch = (SRC / DICT_REFERENCE).read_text()
    assert len(re.findall(r"isinstance\(graph, CompactGraph\)", dispatch)) == 1
