"""Shared test helpers: tiny builders and brute-force reference engines.

The reference engines compute maximum (bounded) simulations by naive
greatest-fixpoint iteration straight off the definitions in Section II
and Section VI -- quadratic scans, no indexes -- so the production
engines can be validated against something independently simple.
"""

from __future__ import annotations

import gc
import glob
import itertools
import os
import random
import sys
import tempfile
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.graph import ANY, BoundedPattern, DataGraph, Pattern
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.simulation import array_engine


@contextmanager
def fresh_registry():
    """Swap in an empty process-global metrics registry; yields it."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def _kernels():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return ("sets",)
    return ("sets", "array")


#: The Match kernels this interpreter can run on a whole-graph
#: snapshot: the array one only where NumPy imports (CI re-runs the
#: kernel tests with it masked out).
KERNELS = _kernels()


@contextmanager
def forced_kernel(kernel: str):
    """Run whole-graph snapshot matches -- plain and bounded, both ask
    ``array_engine._numpy_for`` -- on one kernel whatever the
    snapshot's size: ``"array"`` drops the size cut, ``"sets"`` masks
    NumPy out (``import numpy`` raises, as where it is missing)."""
    assert kernel in KERNELS, kernel
    patch = pytest.MonkeyPatch()
    if kernel == "array":
        patch.setattr(array_engine, "ARRAY_MIN_EDGES", 0)
    else:
        patch.setitem(sys.modules, "numpy", None)
    try:
        yield
    finally:
        patch.undo()


def shm_segments() -> Set[str]:
    """The ``/dev/shm`` entries named like a flat segment: nothing may
    create one, so tests assert this never grows."""
    return set(glob.glob("/dev/shm/repro_flat_*"))


@contextmanager
def matchjoin_metrics():
    """Isolate the MatchJoin counters in a fresh registry.

    Yields ``count(family, path)`` reading ``repro_matchjoin_<family>``
    for one ``path`` label (``ids`` | ``keys`` | ``naive``) -- how tests
    assert which id space a call ran in and how many row sweeps it made.
    """
    with fresh_registry() as registry:
        yield lambda family, path: registry.counter(
            f"repro_matchjoin_{family}", path=path
        ).value


def attached(graph):
    """``graph``'s snapshot as a load maps it back: saved with
    ``SnapshotStore.save`` in a temporary directory and loaded from it,
    its tables attached lazily (a snapshot leaves a process only as such
    a directory).  ``graph`` is a live graph or a snapshot."""
    from repro.graph.snapshot import SnapshotStore

    # The files go with the directory; their mappings stay readable.
    with tempfile.TemporaryDirectory() as directory:
        SnapshotStore.save(directory, graph)
        return SnapshotStore.load(directory).graph


def key_only(views):
    """A catalog over ``views``' definitions whose extensions are their
    node-key sets alone (plain dicts, no id rows): what MatchJoin reads
    through its ``keys`` adapter, which ``materialize`` never produces."""
    from repro.views import ViewSet
    from repro.views.view import MaterializedView

    copy = ViewSet(views.definitions())
    for name, view in views.extensions().items():
        distances = None if view.distances is None else dict(view.distances.items())
        copy.set_extension(MaterializedView(
            view.definition,
            {edge: set(pairs) for edge, pairs in view.edge_matches.items()},
            distances,
        ))
    return copy


def dict_extension(definition, graph: DataGraph):
    """The extension the dict reference engines give ``definition`` on
    the live ``graph``: node-key match sets and, for a bounded view, the
    shortest distance of every pair (``I(V)``) -- what a materialized
    view's decoded rows are held to."""
    from repro.simulation import match
    from repro.simulation.bounded import bounded_match_with_distances
    from repro.views.view import MaterializedView

    pattern = definition.pattern
    empty = {edge: set() for edge in pattern.edges()}
    if not definition.is_bounded:
        result = match(pattern, graph)
        return MaterializedView(definition, result.edge_matches if result else empty)
    result, per_edge = bounded_match_with_distances(pattern, graph)
    index: Dict[Tuple, int] = {}
    for distances in per_edge.values() if result else ():
        for pair, distance in distances.items():
            index[pair] = min(distance, index.get(pair, distance))
    return MaterializedView(definition, result.edge_matches if result else empty, index)


def build_graph(labeled_nodes, edges):
    """``labeled_nodes``: {node: label}; ``edges``: iterable of pairs."""
    g = DataGraph()
    for node, label in labeled_nodes.items():
        g.add_node(node, labels=label)
    for source, target in edges:
        g.add_edge(source, target)
    return g


def apply_ops(graph: DataGraph, delta) -> None:
    """Apply a ``Delta``'s ops to a plain graph in order, skipping
    present-edge insertions and absent-edge deletions, as a maintenance
    tracker does."""
    for op, source, target in delta:
        if op == "insert":
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
        elif graph.has_edge(source, target):
            graph.remove_edge(source, target)


def build_pattern(labeled_nodes, edges):
    q = Pattern()
    for node, label in labeled_nodes.items():
        q.add_node(node, label)
    for source, target in edges:
        q.add_edge(source, target)
    return q


def build_bounded(labeled_nodes, edges):
    """``edges``: iterable of (source, target, bound)."""
    q = BoundedPattern()
    for node, label in labeled_nodes.items():
        q.add_node(node, label)
    for source, target, bound in edges:
        q.add_edge(source, target, bound)
    return q


def reference_simulation(
    pattern: Pattern, graph: DataGraph, parents: bool = False
) -> Optional[Dict]:
    """Naive greatest-fixpoint maximum simulation: the child condition,
    and with ``parents`` the parent condition too (dual simulation: a
    match of ``u1`` needs a predecessor matching ``u`` for every pattern
    edge ``(u, u1)``)."""
    sim = {
        u: {
            v
            for v in graph.nodes()
            if pattern.condition(u).matches(graph.labels(v), graph.attrs(v))
        }
        for u in pattern.nodes()
    }
    changed = True
    while changed:
        changed = False
        for u in pattern.nodes():
            for u1 in pattern.successors(u):
                keep = {
                    v
                    for v in sim[u]
                    if any(w in sim[u1] for w in graph.successors(v))
                }
                if keep != sim[u]:
                    sim[u] = keep
                    changed = True
                if not parents:
                    continue
                keep = {
                    w
                    for w in sim[u1]
                    if any(v in sim[u] for v in graph.predecessors(w))
                }
                if keep != sim[u1]:
                    sim[u1] = keep
                    changed = True
    if any(not s for s in sim.values()):
        return None
    return sim


def reference_edge_matches(pattern, graph, sim):
    return {
        (u, u1): {
            (v, w)
            for v in sim[u]
            for w in graph.successors(v)
            if w in sim[u1]
        }
        for (u, u1) in pattern.edges()
    }


def _within(graph, v, w, bound) -> bool:
    if bound is ANY:
        seen, stack = set(), list(graph.successors(v))
        while stack:
            n = stack.pop()
            if n == w:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(graph.successors(n))
        return False
    return w in graph.descendants_within(v, bound)


def reference_bounded_simulation(
    pattern: BoundedPattern, graph: DataGraph
) -> Optional[Dict]:
    """Naive greatest-fixpoint maximum bounded simulation."""
    sim = {
        u: {
            v
            for v in graph.nodes()
            if pattern.condition(u).matches(graph.labels(v), graph.attrs(v))
        }
        for u in pattern.nodes()
    }
    changed = True
    while changed:
        changed = False
        for u in pattern.nodes():
            for u1 in pattern.successors(u):
                bound = pattern.bound((u, u1))
                keep = {
                    v
                    for v in sim[u]
                    if any(_within(graph, v, w, bound) for w in sim[u1])
                }
                if keep != sim[u]:
                    sim[u] = keep
                    changed = True
    if any(not s for s in sim.values()):
        return None
    return sim


def random_labeled_graph(
    rng: random.Random, num_nodes: int, num_edges: int, labels: str = "ABC"
) -> DataGraph:
    g = DataGraph()
    for i in range(num_nodes):
        g.add_node(i, labels=rng.choice(labels))
    for _ in range(num_edges):
        g.add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes))
    return g


def str_keyed(graph: DataGraph) -> Tuple[List[Tuple[str, str]], Dict[str, frozenset]]:
    """A graph's ``(edges, {node: labels})`` over str keys: what
    :func:`ingested` takes (attributes and edgeless nodes drop out)."""
    edges = [(str(s), str(t)) for s, t in graph.edges()]
    return edges, {str(node): graph.labels(node) for node in graph.nodes()}


def ingested_dir(edges, labels, num_shards: int, tmp_path):
    """``(directory, graph)``: ``edges`` streamed by ``ingest_snapshot``
    into a fresh sharded snapshot directory under ``tmp_path``, and the
    ``DataGraph`` of the same edges.

    ``edges`` are ``(source, target)`` pairs of str node keys;
    ``labels`` maps a node to its label (or labels) or is a callable
    doing so (a node a mapping lacks is unlabelled).
    """
    from repro.graph.ingest import ingest_snapshot

    label_of = labels if callable(labels) else lambda node: labels.get(node, ())

    def labeler(node):
        found = label_of(node)
        return (found,) if isinstance(found, str) else tuple(found)

    edges = list(edges)
    graph = DataGraph()
    for source, target in edges:
        for node in (source, target):
            if node not in graph:
                graph.add_node(node, labels=labeler(node))
        graph.add_edge(source, target)
    out = os.path.join(tempfile.mkdtemp(prefix="ingested-", dir=tmp_path), "snap")
    # Neither durability nor ingest's per-shard full collection (~15 ms
    # each in a test process's heap) is what a caller here checks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", lambda fd: None)
        patch.setattr(gc, "collect", lambda *args: 0)
        ingest_snapshot(iter(edges), out, num_shards=num_shards, labeler=labeler)
    return out, graph


def ingested(edges, labels, num_shards: int, tmp_path):
    """``(sharded, graph)``: a sharded graph built the one way there is
    -- :func:`ingested_dir`, then ``SnapshotStore.load`` -- and the
    ``DataGraph`` of the same edges."""
    from repro.graph.snapshot import SnapshotStore

    out, graph = ingested_dir(edges, labels, num_shards, tmp_path)
    return SnapshotStore.load(out).graph, graph


def name_in_shard(node, shard: int, num_shards: int) -> str:
    """A str key for ``node`` that hash placement puts in ``shard``
    (tests pick a placement by naming, never by injecting one)."""
    from repro.shard.partitioner import _stable_hash

    for suffix in itertools.count():
        name = f"{node}.{suffix}"
        if _stable_hash(name) % num_shards == shard:
            return name
    raise AssertionError("unreachable")


def random_pattern(
    rng: random.Random, num_nodes: int, num_edges: int, labels: str = "ABC"
) -> Pattern:
    q = Pattern()
    for i in range(num_nodes):
        q.add_node(i, rng.choice(labels))
    # Spanning-ish backbone keeps patterns connected.
    for i in range(1, num_nodes):
        j = rng.randrange(i)
        if rng.random() < 0.5:
            q.add_edge(j, i)
        else:
            q.add_edge(i, j)
    extra = max(0, num_edges - (num_nodes - 1))
    for _ in range(extra):
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b:
            q.add_edge(a, b)
    return q
