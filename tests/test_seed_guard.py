"""One seeding ladder: nothing under ``src/`` tests node conditions
node by node except the places listed here.

Candidate seeding used to be five hand-copied ``Label`` / labelled
``AttributeCondition`` / else ladders, each calling
``condition.matches`` per data node.  They now route through
``CompactGraph.candidate_ids``; this guard keeps a sixth from appearing.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Where a per-node ``.matches(`` call is legitimate, and why.
ALLOWED = {
    "graph/conditions.py": "defines Condition.matches",
    "graph/compact.py": "the candidate index's fallback scan",
    "simulation/seeding.py": "the dict-backend reference path",
    "simulation/repair.py": "tests one node per edge a batch changed",
}


def test_seed_ladders_stay_in_one_place():
    calls = re.compile(r"\.matches\(")
    found = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if calls.search(path.read_text())
    }
    assert found <= set(ALLOWED), (
        f"per-node condition scans outside the allow-list: "
        f"{sorted(found - set(ALLOWED))}; seed through "
        f"CompactGraph.candidate_ids / simulation.seeding.node_candidates"
    )
    assert set(ALLOWED) <= found, (
        f"stale allow-list entries: {sorted(set(ALLOWED) - found)}"
    )
