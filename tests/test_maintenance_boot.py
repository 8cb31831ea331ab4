"""A maintained engine boots on one fixpoint per view, on the snapshot.

``IncrementalViewSet(definitions, graph)`` freezes ``graph`` (cached:
the catalog serving the views gets the same snapshot) and runs the
id-space witness fixpoint once per simulation view.  The run's rows are
the view's first extension, already bound to that snapshot, and its
state (id sets and lazy counters) is what the updates carry.  These
tests hold that state to the dict fixpoint (``witness.simulate``), and
pin what neither a boot nor an update runs: no dict ``simulate``, no
``WitnessCounters``, no NumPy.
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


def assert_state_is_the_maximum_simulation(tracker, graph):
    """Every tracked view's kept state decodes, off the tracker's
    snapshot, to ``simulate``'s maximum simulation on the dict graph
    ``graph`` (moved by the same ops), and each counter it holds for a
    live candidate is that candidate's exact witness count."""
    snapshot = tracker.graph
    decode = snapshot.node_table.__getitem__
    for name in tracker.names():
        pattern = tracker.definition(name).pattern
        expected = simulate(pattern, graph)
        state = tracker._trackers[name]._state
        if expected is None:
            assert state is None, name
            continue
        assert {u: set(map(decode, ids)) for u, ids in state.sim.items()} == expected.sim, name
        for (u, u1), counter in state.counters.items():
            for v in state.sim[u].intersection(counter):
                witnesses = state.sim[u1].intersection(snapshot.succ_rows[v])
                assert counter[v] == len(witnesses), (name, u, u1, v)


def assert_tracks_like_simulate(tracker, graph):
    """The kept states are the maximum simulations, and every first
    extension is bound to the graph's snapshot and holds their edge
    matches."""
    assert_state_is_the_maximum_simulation(tracker, graph)
    snapshot = tracker.graph
    for name in tracker.names():
        pattern = tracker.definition(name).pattern
        expected = simulate(pattern, graph)
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
    assert tracker._trackers["empty"]._state is None
    assert tracker.extension("empty").num_pairs == 0
    assert_tracks_like_simulate(tracker, graph)
    # The counters are the live ones: a delete still cascades exactly.
    edges = sorted(graph.edges(), key=repr)
    if edges:
        edge = rng.choice(edges)
        tracker.apply_delta(Delta().delete(*edge))
        graph.remove_edge(*edge)
        assert_state_is_the_maximum_simulation(tracker, graph)


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
    decode = graph.freeze().node_table.__getitem__
    assert set(map(decode, tracker._trackers["ab"]._state.sim["b"])) == {"b1", "b2"}
    tracker.apply_delta(Delta().delete("a1", "b1"))
    decode = tracker.graph.node_table.__getitem__
    assert set(map(decode, tracker._trackers["ab"]._state.sim["a"])) == {"a2"}


def test_the_boot_leaves_no_adjacency_row_decoded():
    # Serving reads the view rows; the adjacency rows the fixpoints
    # decoded would be copied by every later batch's snapshot.
    graph = amazon_graph(800, 2400, seed=3)
    tracker = IncrementalViewSet(amazon_views().definitions(), graph)
    snapshot = graph.freeze()
    assert dict.__len__(snapshot.succ_rows) == dict.__len__(snapshot.pred_rows) == 0
    tracker.apply_delta(Delta().insert(*list(graph.nodes())[:2]))
    refreshed = tracker.graph
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
#: (wherever a module bound it) and every ``WitnessCounters`` built over
#: the boot and over one delta -- it inserts an edge between two of the
#: largest view's nodes and deletes one of its matched pairs -- and answers
#: the view's own pattern before and after the delta.
BOOT = """
import argparse, json, sys
from repro.simulation import witness
import repro.cli, repro.engine.maintenance, repro.views.maintenance
from repro.views.maintenance import Delta
calls = {"simulate": 0, "WitnessCounters": 0}
simulate, build = witness.simulate, witness.WitnessCounters.__init__

def counted_simulate(*args, **kwargs):
    calls["simulate"] += 1
    return simulate(*args, **kwargs)

def counted_build(self, *args, **kwargs):
    calls["WitnessCounters"] += 1
    return build(self, *args, **kwargs)

for module in list(sys.modules.values()):
    if getattr(module, "simulate", None) is simulate:
        module.simulate = counted_simulate
witness.WitnessCounters.__init__ = counted_build
from repro.obs.metrics import get_registry
args = argparse.Namespace(graph=sys.argv[1], views=sys.argv[2])
engine = repro.cli._maintained_engine(args)
booted = dict(calls, numpy="numpy" in sys.modules)
views, graph = engine.views, engine.graph
name = max(views.names(), key=lambda n: views.extension(n).num_pairs)
pattern = views.definition(name).pattern
first = engine.answer(pattern)
matches = views.extension(name).edge_matches
edge = max(matches, key=lambda e: len(matches[e]))
sources = sorted({v for v, _ in matches[edge]}, key=repr)
targets = sorted({w for _, w in matches[edge]}, key=repr)
extra = next((v, w) for v in sources for w in targets if not graph.has_edge(v, w))
before = dict(calls)  # a query's containment check runs the dict fixpoint
report = engine.apply_delta(Delta().insert(*extra).delete(*min(matches[edge], key=repr)))
updated = {key: calls[key] - before[key] for key in calls}
answer = engine.answer(pattern)
joins = {path: get_registry().counter("repro_matchjoin_total", path=path).value
         for path in ("ids", "naive")}
print(json.dumps({"boot": booted, "update": updated, "changed": name in report.changed_views,
                  "strategy": answer.stats.strategy, "pairs": [first.result_size, answer.result_size],
                  "joins": joins, "numpy": "numpy" in sys.modules}))
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
    assert report["boot"] == {"simulate": 0, "WitnessCounters": 0, "numpy": False}
    assert report["update"] == {"simulate": 0, "WitnessCounters": 0}
    assert report["changed"] is True
    assert report["strategy"] == "matchjoin" and min(report["pairs"]) > 0
    assert report["joins"] == {"ids": 2, "naive": 0}
    assert report["numpy"] is False


#: Boots ``cli._maintained_engine`` in a fresh interpreter from
#: ``--graph`` or ``--snapshot`` and counts the live ``DataGraph``
#: instances after the boot and after one delta (an insert between the
#: largest view's nodes and the delete of one of its pairs).
NO_DICT_GRAPH = """
import argparse, gc, json, sys
import repro.cli
from repro.graph.digraph import DataGraph
from repro.views.maintenance import Delta

def alive():
    gc.collect()
    return sum(isinstance(obj, DataGraph) for obj in gc.get_objects())

form, path = sys.argv[1], sys.argv[2]
if form == "graph":
    args = argparse.Namespace(graph=path, views=sys.argv[3], snapshot=None)
else:
    args = argparse.Namespace(graph=None, views=None, snapshot=path)
engine = repro.cli._maintained_engine(args)
booted = alive()
same = [engine.graph is engine.snapshot() is engine.maintenance.graph]
views = engine.views
name = max(views.names(), key=lambda n: views.extension(n).num_pairs)
matches = views.extension(name).edge_matches
edge = max(matches, key=lambda e: len(matches[e]))
pairs = sorted(matches[edge], key=repr)
sources, targets = sorted({v for v, _ in pairs}, key=repr), sorted({w for _, w in pairs}, key=repr)
extra = next((v, w) for v in sources for w in targets if not engine.graph.has_edge(v, w))
report = engine.apply_delta(Delta().insert(*extra).delete(*pairs[0]))
same.append(engine.graph is engine.snapshot() is engine.maintenance.graph)
print(json.dumps({"booted": booted, "updated": alive(), "same": same,
                  "applied": report.applied, "changed": name in report.changed_views}))
"""


@pytest.mark.parametrize("form", ["graph", "snapshot"])
def test_a_maintained_engine_holds_no_dict_graph(form, tmp_path):
    from repro.graph.snapshot import SnapshotStore

    graph = amazon_graph(1200, 3600, seed=11)
    views = amazon_views()
    write_graph(graph, tmp_path / "g.json")
    write_viewset(views, tmp_path / "v.json")
    views.materialize(graph)
    SnapshotStore.save(tmp_path / "snap", graph, views=views)
    args = [str(tmp_path / "g.json"), str(tmp_path / "v.json")]
    if form == "snapshot":
        args = [str(tmp_path / "snap")]
    done = subprocess.run(
        [sys.executable, "-c", NO_DICT_GRAPH, form, *args],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {
        "booted": 0, "updated": 0, "same": [True, True], "applied": 2, "changed": True,
    }
