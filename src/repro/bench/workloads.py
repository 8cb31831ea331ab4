"""Workload construction for the Fig. 8 experiments.

Everything is deterministic and memoized: the experiment runners share
one cache of generated graphs, materialized view sets and query
workloads within a process.

Scaling: the paper runs on 0.55M-1.6M-node datasets and 0.3M-1M-node
synthetic graphs on a 2008-era JVM; this harness defaults to ~25-30K
node stand-ins (see docs/ARCHITECTURE.md "Where performance is
measured") and exposes a ``scale`` multiplier.  All comparisons are
relative, so the figure *shapes* survive the down-scaling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.datasets import (
    amazon_graph,
    amazon_views,
    citation_graph,
    citation_views,
    densification_graph,
    generate_views,
    query_from_views,
    random_graph,
    youtube_graph,
    youtube_views,
)
from repro.graph.digraph import DataGraph
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation import bounded_match, match
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition

_cache: Dict = {}

#: Pattern-size axes used by the paper's subfigures.
AMAZON_SIZES = [(4, 4), (4, 6), (4, 8), (6, 6), (6, 9), (6, 12), (8, 8), (8, 12), (8, 16)]
CITATION_SIZES = [(4, 8), (5, 10), (6, 12), (7, 14), (8, 16)]
YOUTUBE_SIZES = [(4, 8), (5, 10), (6, 12), (7, 14), (8, 16)]
CONTAINMENT_SIZES = [(6, 6), (6, 12), (7, 7), (7, 14), (8, 8), (8, 16), (9, 9), (9, 18), (10, 10), (10, 20)]


def _memo(key, factory):
    if key not in _cache:
        _cache[key] = factory()
    return _cache[key]


def clear_cache() -> None:
    _cache.clear()


# ----------------------------------------------------------------------
# Datasets with materialized view caches
# ----------------------------------------------------------------------
def amazon(scale: float = 1.0) -> Tuple[DataGraph, ViewSet]:
    def build():
        graph = amazon_graph(int(30_000 * scale), int(90_000 * scale), seed=11)
        views = amazon_views()
        views.materialize(graph)
        return graph, views

    return _memo(("amazon", scale), build)


def citation(scale: float = 1.0) -> Tuple[DataGraph, ViewSet]:
    def build():
        graph = citation_graph(int(25_000 * scale), int(60_000 * scale), seed=11)
        views = citation_views()
        views.materialize(graph)
        return graph, views

    return _memo(("citation", scale), build)


def youtube(scale: float = 1.0) -> Tuple[DataGraph, ViewSet]:
    def build():
        graph = youtube_graph(int(30_000 * scale), int(85_000 * scale), seed=11)
        views = youtube_views()
        views.materialize(graph)
        return graph, views

    return _memo(("youtube", scale), build)


def synthetic(num_nodes: int) -> Tuple[DataGraph, ViewSet]:
    """Synthetic graph with |E| = 2|V| plus the 22-view suite."""
    def build():
        graph = random_graph(num_nodes, 2 * num_nodes, seed=17)
        views = generate_views(tuple(f"l{i}" for i in range(10)), 22, seed=17)
        views.materialize(graph)
        return graph, views

    return _memo(("synthetic", num_nodes), build)


def densification(num_nodes: int, alpha: float) -> Tuple[DataGraph, ViewSet]:
    def build():
        graph = densification_graph(num_nodes, alpha, seed=19)
        views = generate_views(tuple(f"l{i}" for i in range(10)), 22, seed=17)
        views.materialize(graph)
        return graph, views

    return _memo(("densification", num_nodes, alpha), build)


# ----------------------------------------------------------------------
# Bounded view suites (promotions of the simulation suites)
# ----------------------------------------------------------------------
def bounded_suite(views: ViewSet, bound: int, tag: str) -> ViewSet:
    """Promote every view of ``views`` to a bounded view with ``fe = bound``."""
    def build():
        promoted = ViewSet()
        for definition in views:
            pattern = definition.pattern
            bp = pattern.bounded(default=bound)
            promoted.add(ViewDefinition(f"{definition.name}@{bound}", bp))
        return promoted

    return _memo(("bounded_suite", tag, bound), build)


def bounded_dataset(
    name: str, bound: int, scale: float = 1.0
) -> Tuple[DataGraph, ViewSet]:
    """Dataset plus a materialized bounded view suite with edge bound k."""
    base = {"amazon": amazon, "citation": citation, "youtube": youtube}[name]

    def build():
        graph, plain_views = base(scale)
        views = bounded_suite(plain_views, bound, tag=f"{name}:{scale}")
        views.materialize(graph)
        return graph, views

    return _memo(("bounded_dataset", name, bound, scale), build)


def synthetic_bounded(num_nodes: int, bound: int) -> Tuple[DataGraph, ViewSet]:
    def build():
        graph, plain_views = synthetic(num_nodes)
        views = bounded_suite(plain_views, bound, tag=f"syn:{num_nodes}")
        views.materialize(graph)
        return graph, views

    return _memo(("synthetic_bounded", num_nodes, bound), build)


# ----------------------------------------------------------------------
# Query workloads
# ----------------------------------------------------------------------
def pick_query(
    views: ViewSet,
    num_nodes: int,
    num_edges: int,
    graph: Optional[DataGraph] = None,
    require_dag: bool = False,
    tag: str = "",
) -> Pattern:
    """A query of roughly the requested size, contained in ``views`` by
    construction; when ``graph`` is given, prefer a seed whose query has
    a nonempty answer so timing compares real work, not early exits."""
    def build():
        fallback = None
        for seed in range(12):
            query = query_from_views(
                views, num_nodes, num_edges, seed=seed, require_dag=require_dag
            )
            if fallback is None:
                fallback = query
            if graph is None:
                return query
            if isinstance(query, BoundedPattern):
                result = bounded_match(query, graph)
            else:
                result = match(query, graph)
            if result.result_size:
                return query
        return fallback

    return _memo(("query", tag, num_nodes, num_edges, require_dag), build)


def query_suite(
    views: ViewSet,
    sizes: List[Tuple[int, int]],
    graph: Optional[DataGraph] = None,
    require_dag: bool = False,
    tag: str = "",
) -> List[Tuple[Tuple[int, int], Pattern]]:
    return [
        (size, pick_query(views, size[0], size[1], graph=graph,
                          require_dag=require_dag, tag=tag))
        for size in sizes
    ]


def overlapping_views(seed: int = 17) -> Tuple[ViewSet, ViewSet]:
    """A view suite with *coverage overlap* for the minimum-vs-minimal
    experiment (Fig. 8(h)).

    Mirrors the paper's Fig. 4 setup: many small (1-2 edge) views listed
    first, plus a handful of large composite views (stitches of the
    small ones) listed last.  Algorithm ``minimal`` scans in order and
    accumulates small views; greedy ``minimum`` grabs the composites --
    which is exactly what separates card(minimum) from card(minimal).

    Returns ``(full_suite, composites_only)``; queries should be built
    from the composites so that every query edge is coverable both ways.
    """
    def build():
        labels = tuple(f"l{i}" for i in range(10))
        small = generate_views(labels, 22, seed=seed, name_prefix="S")
        composites = ViewSet()
        for index in range(6):
            pattern = query_from_views(small, 6, 8, seed=seed + 100 + index)
            composites.add(ViewDefinition(f"BIG{index}", pattern))
        full = ViewSet(list(small) + list(composites))
        return full, composites

    return _memo(("overlapping_views", seed), build)
