"""Import layering: what a process loads is what its command runs.

The dependency direction is

    obs, errors  <-  graph  <-  simulation, shard  <-  views  <-  core
                 <-  engine  <-  serve, cli, bench

and every package ``__init__`` is a PEP 562 lazy re-export, so importing
a package (or ``repro`` itself) loads none of its neighbours.  Each case
below runs in a fresh interpreter, because ``sys.modules`` of the test
process has long since seen everything.
"""

import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.ingest import ingest_snapshot
from repro.graph.io import write_pattern
from repro.graph.pattern import Pattern

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Package -> layer.  A module may import (at module level) only from
#: layers at or below its own; function-level imports reach upward where
#: a command needs it (``graph.ingest`` drives the shard partitioner).
RANK = {
    "obs": 0,
    "errors": 0,
    "graph": 1,
    "simulation": 2,
    "shard": 2,
    "views": 3,
    "datasets": 3,
    "core": 4,
    "engine": 5,
    "serve": 6,
    "cli": 6,
    "bench": 6,
}
#: Modules that sit above their package: shard-parallel *view*
#: materialization needs the views layer.
RANK_OVERRIDES = {"repro.shard.materialize": RANK["views"]}


def _rank(module: str) -> int:
    if module in RANK_OVERRIDES:
        return RANK_OVERRIDES[module]
    parts = module.split(".")
    return RANK[parts[1]] if len(parts) > 1 else -1


def _loaded_after(code: str, *argv: str):
    """``sys.modules`` names (``repro.*`` and a few stdlib heavyweights)
    after running ``code`` in a fresh interpreter."""
    probe = (
        "import json, sys\n"
        + code
        + "\nwatch = ('repro', 'multiprocessing', 'concurrent', 'asyncio')\n"
        "sys.stderr.write('LOADED ' + json.dumps(sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] in watch)) + '\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = [l for l in done.stderr.splitlines() if l.startswith("LOADED ")][-1]
    return json.loads(line[len("LOADED "):]), done.stdout


def _repro_modules(loaded):
    return [m for m in loaded if m == "repro" or m.startswith("repro.")]


@pytest.mark.parametrize("target", ["repro", "repro.cli"])
def test_top_level_imports_load_no_subpackage(target):
    loaded, _ = _loaded_after(f"import {target}")
    assert _repro_modules(loaded) == sorted({"repro", target})
    assert not [m for m in loaded if not m.startswith("repro")]


@pytest.mark.parametrize(
    "package", [p for p in RANK if p not in ("errors", "cli")]
)
def test_package_pulls_in_nothing_above_itself(package):
    name = f"repro.{package}"
    path = [str(Path(repro.__file__).parent / package)]
    modules = [name] + [
        info.name for info in pkgutil.walk_packages(path, prefix=name + ".")
    ]
    # The bare package import first: lazy re-exports load nothing
    # (``repro.datasets`` binds ``youtube_views`` eagerly: the function
    # shares its submodule's name, which a lazy hook cannot shadow).
    loaded, _ = _loaded_after(f"import {name}")
    if package != "datasets":
        assert _repro_modules(loaded) == ["repro", name]
    # Then every module of the package at the package's own layer.
    own = [m for m in modules if _rank(m) == RANK[package]]
    loaded, _ = _loaded_after("\n".join(f"import {m}" for m in own))
    above = [
        m for m in _repro_modules(loaded) if _rank(m) > RANK[package]
    ]
    assert not above, f"{name} loads modules above its layer: {above}"
    # Modules ranked above their package obey their own layer.
    for module in set(modules) - set(own):
        loaded, _ = _loaded_after(f"import {module}")
        above = [
            m for m in _repro_modules(loaded) if _rank(m) > _rank(module)
        ]
        assert not above, f"{module} loads modules above its layer: {above}"


def test_sharded_boot_loads_only_what_it_runs(tmp_path):
    rng = random.Random(3)
    edges = [
        (f"n{rng.randrange(60)}", f"n{rng.randrange(60)}") for _ in range(300)
    ]
    ingest_snapshot(
        iter(edges), tmp_path / "snap", num_shards=3,
        labeler=lambda node: (f"l{int(node[1:]) % 3}",),
    )
    query = Pattern()
    for position in range(3):
        query.add_node(f"p{position}", f"l{position}")
    query.add_edge("p0", "p1")
    query.add_edge("p1", "p2")
    write_pattern(query, tmp_path / "q.json")

    loaded, stdout = _loaded_after(
        "from repro.cli import main\n"
        "assert main(['snapshot', 'load', sys.argv[1], '--query', sys.argv[2]]) == 0",
        str(tmp_path / "snap"), str(tmp_path / "q.json"),
    )
    assert "loaded sharded snapshot" in stdout and "pairs via direct" in stdout
    mine = _repro_modules(loaded)
    assert len(mine) <= 30, mine
    forbidden = (
        "repro.datasets", "repro.bench", "repro.serve",
        "repro.engine.advisor", "repro.views.maintenance",
        "repro.graph.ingest", "repro.shard.partitioner",
        "multiprocessing", "concurrent.futures", "asyncio",
    )
    hits = [
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".") for bad in forbidden)
    ]
    assert not hits, hits


def test_shard_dispatch_reaches_a_lazily_imported_shard_layer():
    # match()/bounded_match()/materialize() reach a ShardedGraph through
    # the method it carries (``evaluate_ids``), found by the one dispatch
    # in repro.simulation.simulation.evaluate.  Only the submodule is
    # imported here, never ``repro.shard``'s re-exports: the engines in
    # repro.shard.psim load when the graph is first evaluated.
    _, stdout = _loaded_after(
        "from repro.graph.digraph import DataGraph\n"
        "from repro.graph.pattern import BoundedPattern, Pattern\n"
        "from repro.shard.sharded import ShardedGraph\n"
        "from repro.simulation.bounded import bounded_match, bounded_simulates\n"
        "from repro.simulation.simulation import match\n"
        "from repro.views.view import ViewDefinition, materialize\n"
        "g = DataGraph()\n"
        "g.add_node('a', labels='A'); g.add_node('b', labels='B')\n"
        "g.add_edge('a', 'b')\n"
        "sharded = ShardedGraph(g, num_shards=2)\n"
        "print('repro.shard.psim' in sys.modules)\n"
        "q = Pattern(); q.add_node('x', 'A'); q.add_node('y', 'B')\n"
        "q.add_edge('x', 'y')\n"
        "print(sorted(match(q, sharded).edge_matches[('x', 'y')]))\n"
        "print('repro.shard.psim' in sys.modules)\n"
        "b = BoundedPattern(); b.add_node('x', 'A'); b.add_node('y', 'B')\n"
        "b.add_edge('x', 'y', 2)\n"
        "print(sorted(bounded_match(b, sharded).edge_matches[('x', 'y')]))\n"
        "print(bounded_simulates(b, sharded))\n"
        "view = materialize(ViewDefinition('v', q), sharded)\n"
        "print(view.compact.token == sharded.snapshot_token)\n"
    )
    assert stdout.split("\n")[:6] == [
        "False", "[('a', 'b')]", "True", "[('a', 'b')]", "True", "True",
    ]


def test_simulation_dispatch_loads_nothing_from_the_shard_layer():
    # The seam is the graph object: evaluating snapshots and dict graphs
    # never imports (or looks for) the layer above.
    loaded, stdout = _loaded_after(
        "import repro.simulation\n"
        "from repro.graph.digraph import DataGraph\n"
        "from repro.graph.pattern import Pattern\n"
        "from repro.simulation.bounded import bounded_match\n"
        "from repro.simulation.simulation import match\n"
        "from repro.views.view import ViewDefinition, materialize\n"
        "g = DataGraph()\n"
        "g.add_node('a', labels='A'); g.add_node('b', labels='B')\n"
        "g.add_edge('a', 'b')\n"
        "q = Pattern(); q.add_node('x', 'A'); q.add_node('y', 'B')\n"
        "q.add_edge('x', 'y')\n"
        "for target in (g, g.freeze()):\n"
        "    print(len(match(q, target).edge_matches[('x', 'y')]))\n"
        "    print(materialize(ViewDefinition('v', q), target).num_pairs)\n"
    )
    assert stdout.split() == ["1"] * 4
    assert not [m for m in loaded if m.startswith("repro.shard")], loaded
