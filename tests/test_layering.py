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
from repro.datasets import amazon_graph, amazon_views
from repro.graph.ingest import ingest_snapshot
from repro.graph.io import write_graph, write_pattern
from repro.graph.pattern import Pattern
from repro.graph.snapshot import SnapshotStore
from repro.simulation.array_engine import ARRAY_MIN_EDGES
from repro.simulation.bounded import bounded_match
from repro.simulation.simulation import match
from repro.views.io import write_viewset

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
    """``sys.modules`` names (``repro.*``, a few stdlib heavyweights
    and NumPy) after running ``code`` in a fresh interpreter."""
    probe = (
        "import json, sys\n"
        + code
        + "\nwatch = ('repro', 'multiprocessing', 'concurrent', 'asyncio', 'numpy')\n"
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


def _source_lines(module: str) -> int:
    """Lines of the file a ``repro.*`` module was loaded from."""
    path = Path(SRC, *module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    with open(path) as handle:
        return sum(1 for _ in handle)


#: What a sharded ``snapshot load --query`` boot may load, in source
#: lines of its ``repro.*`` modules -- the unit a boot actually pays in
#: (this sandbox compiles every module it imports), and one a file
#: split does not move.  11,215 before the engine was split into
#: catalog / planner / runtime; the priced planner, the cost model and
#: the maintenance glue are off the path since.
BOOT_LINE_BUDGET = 10_800


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
    # Every shard is big enough for the array kernel, were it a whole
    # graph: shards have ghosts, so they run the set kernel and the boot
    # never imports NumPy.
    rng = random.Random(3)
    edges = {
        (f"n{rng.randrange(1500)}", f"n{rng.randrange(1500)}")
        for _ in range(6 * ARRAY_MIN_EDGES)
    }
    ingest_snapshot(
        iter(sorted(edges)), tmp_path / "snap", num_shards=4,
        labeler=lambda node: (f"l{int(node[1:]) % 3}",),
    )
    shards = SnapshotStore.load(tmp_path / "snap").graph.shards
    assert min(shard.num_edges for shard in shards) >= ARRAY_MIN_EDGES
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
    mine = {module: _source_lines(module) for module in _repro_modules(loaded)}
    assert sum(mine.values()) <= BOOT_LINE_BUDGET, mine
    forbidden = (
        "repro.datasets", "repro.bench", "repro.serve",
        "repro.engine.advisor", "repro.engine.pricing", "repro.engine.cost",
        "repro.engine.maintenance", "repro.views.maintenance",
        "repro.graph.ingest", "repro.shard.partitioner",
        "multiprocessing", "concurrent.futures", "asyncio", "numpy",
    )
    hits = [
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".") for bad in forbidden)
    ]
    assert not hits, hits


def test_serve_boot_answers_a_miss_and_a_hit_without_numpy(tmp_path):
    # The server's graph is big enough for the array kernel, but a
    # contained query is MatchJoin over maintained extensions: no direct
    # match runs, so NumPy's 12 MiB never enter the serving process.
    views = amazon_views()
    graph = amazon_graph(1200, 2 * ARRAY_MIN_EDGES, seed=11)
    assert graph.num_edges >= ARRAY_MIN_EDGES
    write_graph(graph, tmp_path / "g.json")
    write_viewset(views, tmp_path / "v.json")
    write_pattern(next(iter(views)).pattern, tmp_path / "q.json")
    loaded, stdout = _loaded_after(
        "import socket, threading, time\n"
        "from repro.cli import main\n"
        "with socket.socket() as free:\n"
        "    free.bind(('127.0.0.1', 0))\n"
        "    port = free.getsockname()[1]\n"
        "argv = ['serve', '--graph', sys.argv[1], '--views', sys.argv[2],\n"
        "        '--port', str(port), '--log-level', 'warning']\n"
        "threading.Thread(target=main, args=(argv,), daemon=True).start()\n"
        "pattern = json.load(open(sys.argv[3]))\n"
        "request = json.dumps({'op': 'query', 'pattern': pattern}) + '\\n'\n"
        "for attempt in range(200):\n"
        "    try:\n"
        "        conn = socket.create_connection(('127.0.0.1', port))\n"
        "        break\n"
        "    except OSError:\n"
        "        time.sleep(0.05)\n"
        "stream = conn.makefile('rwb')\n"
        "for _ in range(2):\n"
        "    stream.write(request.encode())\n"
        "    stream.flush()\n"
        "    reply = json.loads(stream.readline())\n"
        "    print(reply['ok'], reply['cache_hit'], reply['result']['pairs'] > 0)\n",
        str(tmp_path / "g.json"), str(tmp_path / "v.json"), str(tmp_path / "q.json"),
    )
    assert stdout.splitlines()[-2:] == ["True False True", "True True True"]
    assert "repro.serve.server" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


def test_whole_graph_match_without_numpy_runs_the_set_kernel():
    # ``sys.modules["numpy"] = None`` makes ``import numpy`` raise, as on
    # an interpreter without it; the answer must not change -- of a plain
    # match or of a bounded one (the last pattern, every edge within 2).
    graph = amazon_graph(1200, 2 * ARRAY_MIN_EDGES, seed=11)
    patterns = [definition.pattern for definition in list(amazon_views())[:4]]
    results = [match(pattern, graph) for pattern in patterns]
    results.append(bounded_match(patterns[0].bounded(default=2), graph))
    expected = [
        f"{result.result_size} {sorted(map(repr, result.as_relation()))}"
        for result in results
    ]
    assert any(not line.startswith("0 ") for line in expected[:-1])
    assert not expected[-1].startswith("0 ")
    code = (
        "{mask}"
        "from repro.datasets import amazon_graph, amazon_views\n"
        "from repro.obs import trace\n"
        "from repro.simulation.bounded import bounded_match\n"
        "from repro.simulation.simulation import match\n"
        f"frozen = amazon_graph(1200, {2 * ARRAY_MIN_EDGES}, seed=11).freeze()\n"
        "patterns = [d.pattern for d in list(amazon_views())[:4]]\n"
        "runs = [(match, pattern) for pattern in patterns]\n"
        "runs.append((bounded_match, patterns[0].bounded(default=2)))\n"
        "for run, pattern in runs:\n"
        "    with trace.root_span('query') as root:\n"
        "        result = run(pattern, frozen)\n"
        "    print(root.children[0].attrs['kernel'], result.result_size,\n"
        "          sorted(map(repr, result.as_relation())))\n"
    )
    loaded, stdout = _loaded_after(code.format(mask="sys.modules['numpy'] = None\n"))
    assert not [m for m in loaded if m.startswith("numpy.")]
    assert stdout.splitlines() == [f"sets {line}" for line in expected]
    try:
        import numpy  # noqa: F401
    except ImportError:
        return
    loaded, stdout = _loaded_after(code.format(mask=""))
    assert "numpy" in loaded
    assert stdout.splitlines() == [f"array {line}" for line in expected]


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
