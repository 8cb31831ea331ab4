"""Shared test helpers: tiny builders and brute-force reference engines.

The reference engines compute maximum (bounded) simulations by naive
greatest-fixpoint iteration straight off the definitions in Section II
and Section VI -- quadratic scans, no indexes -- so the production
engines can be validated against something independently simple.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from typing import Dict, Optional, Set

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


def build_graph(labeled_nodes, edges):
    """``labeled_nodes``: {node: label}; ``edges``: iterable of pairs."""
    g = DataGraph()
    for node, label in labeled_nodes.items():
        g.add_node(node, labels=label)
    for source, target in edges:
        g.add_edge(source, target)
    return g


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


def reference_simulation(pattern: Pattern, graph: DataGraph) -> Optional[Dict]:
    """Naive greatest-fixpoint maximum simulation (child condition only)."""
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
