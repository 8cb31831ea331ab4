"""A maintained engine boots on one fixpoint per view, on the snapshot.

``IncrementalViewSet(definitions, graph)`` freezes ``graph`` (cached:
the catalog serving the views gets the same snapshot) and runs the
id-space witness fixpoint once per simulation view.  The run's rows are
the view's first extension, already bound to that snapshot; its decoded
maximum simulation seeds the node-key counters the updates keep.  These
tests hold that state to the dict fixpoint (``witness.simulate``) it
replaces, and pin what a boot no longer runs: no dict ``simulate``, no
``bind_extension``, no NumPy.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datasets import (
    amazon_graph,
    amazon_views,
    citation_graph,
    citation_views,
    youtube_graph,
    youtube_views,
)
from repro.graph import DataGraph, Pattern
from repro.graph.io import write_graph
from repro.simulation.witness import simulate
from repro.views import ViewDefinition
from repro.views.io import write_viewset
from repro.views.maintenance import Delta, IncrementalViewSet

from helpers import random_labeled_graph, random_pattern, reference_edge_matches

SRC = str(Path(repro.__file__).resolve().parent.parent)


def assert_tracks_like_simulate(tracker, graph):
    """Every tracked view's counters equal ``simulate``'s on the dict
    graph, and its first extension is bound to the graph's snapshot and
    holds the maximum simulation's edge matches."""
    snapshot = graph.freeze()
    for name in tracker.names():
        pattern = tracker.definition(name).pattern
        expected = simulate(pattern, graph)
        state = tracker._trackers[name]._fixpoint
        if expected is None:
            assert state is None, name
        else:
            assert state.sim == expected.sim, name
            assert state.children == expected.children, name
        extension = tracker.extension(name)
        assert extension.compact.token == snapshot.snapshot_token, name
        pairs = reference_edge_matches(pattern, graph, expected.sim) if expected else {}
        for edge in pattern.edges():
            assert extension.edge_matches[edge] == pairs.get(edge, set()), (name, edge)


@pytest.mark.parametrize(
    "suite",
    [
        (amazon_graph, amazon_views),
        (citation_graph, citation_views),
        (youtube_graph, youtube_views),
    ],
    ids=["amazon", "citation", "youtube"],
)
def test_every_suite_view_starts_from_the_dict_fixpoint(suite):
    make_graph, make_views = suite
    graph = make_graph(2000, 6000, seed=5)
    definitions = make_views().definitions()
    tracker = IncrementalViewSet(definitions, graph)
    assert len(tracker.names()) == sum(not d.is_bounded for d in definitions)
    assert any(tracker.extension(name).num_pairs for name in tracker.names())
    assert_tracks_like_simulate(tracker, graph)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), loops=st.integers(0, 4))
def test_random_views_start_from_the_dict_fixpoint(seed, loops):
    rng = random.Random(seed)
    graph = random_labeled_graph(rng, rng.randint(1, 25), rng.randint(0, 60))
    nodes = list(graph.nodes())
    for node in rng.sample(nodes, min(loops, len(nodes))):
        graph.add_edge(node, node)  # data self-loops
    definitions = []
    for i in range(rng.randint(1, 4)):
        pattern = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
        if rng.random() < 0.4:
            u = rng.choice(list(pattern.nodes()))
            pattern.add_edge(u, u)  # a pattern self-loop
        definitions.append(ViewDefinition(f"V{i}", pattern))
    # A view no node can match: its extension is empty, with no counters.
    empty = Pattern()
    empty.add_node("x", "Z")
    empty.add_node("y", "A")
    empty.add_edge("x", "y")
    definitions.append(ViewDefinition("empty", empty))
    tracker = IncrementalViewSet(definitions, graph)
    assert tracker._trackers["empty"]._fixpoint is None
    assert tracker.extension("empty").num_pairs == 0
    assert_tracks_like_simulate(tracker, graph)
    # The counters are the live ones: a delete still cascades exactly.
    edges = sorted(graph.edges(), key=repr)
    if edges:
        tracker.apply_delta(Delta().delete(*rng.choice(edges)))
        for name in tracker.names():
            expected = simulate(tracker.definition(name).pattern, graph)
            state = tracker._trackers[name]._fixpoint
            assert (state is None) == (expected is None), name
            if expected is not None:
                assert state.sim == expected.sim, name
                assert state.children == expected.children, name


def test_a_sink_pattern_node_is_tracked():
    # b is a sink of the view: it owns no counters, but its candidates
    # are tracked and a deleted edge into it cascades back to a.
    graph = DataGraph()
    for node, label in (("a1", "A"), ("a2", "A"), ("b1", "B"), ("b2", "B")):
        graph.add_node(node, labels=label)
    graph.add_edge("a1", "b1")
    graph.add_edge("a2", "b1")
    graph.add_edge("a2", "b2")
    view = Pattern()
    view.add_node("a", "A")
    view.add_node("b", "B")
    view.add_edge("a", "b")
    tracker = IncrementalViewSet([ViewDefinition("ab", view)], graph)
    assert_tracks_like_simulate(tracker, graph)
    assert tracker._trackers["ab"]._fixpoint.sim["b"] == {"b1", "b2"}
    tracker.apply_delta(Delta().delete("a1", "b1"))
    assert tracker._trackers["ab"]._fixpoint.sim["a"] == {"a2"}


def test_the_boot_leaves_no_adjacency_row_decoded():
    # Serving reads the view rows; the adjacency rows the fixpoints
    # decoded would be copied by every later refresh.
    graph = amazon_graph(800, 2400, seed=3)
    tracker = IncrementalViewSet(amazon_views().definitions(), graph)
    snapshot = graph.freeze()
    assert dict.__len__(snapshot.succ_rows) == dict.__len__(snapshot.pred_rows) == 0
    tracker.apply_delta(Delta().insert(*list(graph.nodes())[:2]))
    refreshed = graph.freeze()
    assert refreshed.extends_token == snapshot.snapshot_token
    assert dict.__len__(refreshed.succ_rows) == 1  # the touched row only


def test_a_fresh_tracker_extension_is_installed_as_it_is():
    # The catalog's snapshot is the tracker's: attaching installs the
    # tracker's own extension objects, re-encoding nothing.
    from repro.engine import QueryEngine

    graph = amazon_graph(800, 2400, seed=3)
    views = amazon_views()
    tracker = IncrementalViewSet(views.definitions(), graph)
    engine = QueryEngine(views, graph=graph)
    engine.attach_maintenance(tracker)
    assert engine.snapshot() is graph.freeze()
    for name in tracker.names():
        assert engine.views.extension(name) is tracker.extension(name)


#: Runs the ``serve --graph`` / ``maintain`` boot (``cli._maintained_engine``)
#: in a fresh interpreter, counting every call of the dict ``simulate``
#: and of ``bind_extension`` wherever a module bound them, then answers
#: the largest view's own pattern.
BOOT = """
import argparse, json, sys
from repro.simulation import witness
from repro.views import view as view_module
import repro.cli, repro.engine.maintenance, repro.views.maintenance
calls = {"simulate": 0, "bind_extension": 0}

def counted(name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return wrapper

for name, function in (("simulate", witness.simulate),
                       ("bind_extension", view_module.bind_extension)):
    for module in list(sys.modules.values()):
        if getattr(module, name, None) is function:
            setattr(module, name, counted(name, function))
from repro.obs.metrics import get_registry
args = argparse.Namespace(graph=sys.argv[1], views=sys.argv[2])
engine = repro.cli._maintained_engine(args)
booted = dict(calls, numpy="numpy" in sys.modules)
name = max(engine.views.names(), key=lambda n: engine.views.extension(n).num_pairs)
answer = engine.answer(engine.views.definition(name).pattern)
joins = {path: get_registry().counter("repro_matchjoin_total", path=path).value
         for path in ("ids", "keys")}
print(json.dumps({"boot": booted, "strategy": answer.stats.strategy,
                  "pairs": answer.result_size, "joins": joins,
                  "numpy": "numpy" in sys.modules}))
"""


def test_a_maintained_boot_runs_one_fixpoint_per_view_and_no_numpy(tmp_path):
    from repro.simulation.array_engine import ARRAY_MIN_EDGES

    graph = amazon_graph(1200, 2 * ARRAY_MIN_EDGES, seed=11)
    write_graph(graph, tmp_path / "g.json")
    write_viewset(amazon_views(), tmp_path / "v.json")
    done = subprocess.run(
        [sys.executable, "-c", BOOT,
         str(tmp_path / "g.json"), str(tmp_path / "v.json")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["boot"] == {"simulate": 0, "bind_extension": 0, "numpy": False}
    assert report["strategy"] == "matchjoin" and report["pairs"] > 0
    assert report["joins"] == {"ids": 1, "keys": 0}
    assert report["numpy"] is False
