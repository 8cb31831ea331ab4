"""Workload construction for the Fig. 8 experiments.

Everything is deterministic and memoized: the experiment runners share
one cache of datasets and query workloads within a process.  A dataset
is what the engine serves: the generated graph frozen once into a
snapshot, with its view suite materialized on that snapshot (extensions
are id rows, so MatchJoin runs its id-space path).

Scaling: the paper runs on 0.55M-1.6M-node datasets and 0.3M-1M-node
synthetic graphs on a 2008-era JVM; this harness defaults to ~25-30K
node stand-ins (see docs/ARCHITECTURE.md "Where performance is
measured") and exposes a ``scale`` multiplier.  All comparisons are
relative, so the figure *shapes* survive the down-scaling.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

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
from repro.graph.compact import CompactGraph
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

#: A materialized dataset: the frozen snapshot and a view suite whose
#: extensions are id rows of that snapshot.
Dataset = Tuple[CompactGraph, ViewSet]


def _memo(key, factory):
    if key not in _cache:
        _cache[key] = factory()
    return _cache[key]


def clear_cache() -> None:
    _cache.clear()


# ----------------------------------------------------------------------
# Datasets with materialized view caches
# ----------------------------------------------------------------------
def _materialized(
    key, snapshot: Callable[[], CompactGraph], suite: Callable[[], ViewSet]
) -> Dataset:
    """Memoized ``(snapshot, views)``: ``suite()`` materialized on
    ``snapshot()`` -- the id-space path the engine serves."""
    def build():
        graph, views = snapshot(), suite()
        views.materialize(graph)
        return graph, views

    return _memo(key, build)


#: The real-dataset stand-ins: generator, |V| and |E| at scale 1, views.
_STAND_INS = {
    "amazon": (amazon_graph, 30_000, 90_000, amazon_views),
    "citation": (citation_graph, 25_000, 60_000, citation_views),
    "youtube": (youtube_graph, 30_000, 85_000, youtube_views),
}


def dataset(name: str, scale: float = 1.0) -> Dataset:
    """The ``name`` stand-in (amazon, citation or youtube) at ``scale``."""
    generate, nodes, edges, suite = _STAND_INS[name]
    return _materialized(
        (name, scale),
        lambda: generate(int(nodes * scale), int(edges * scale), seed=11).freeze(),
        suite,
    )


def _suite22() -> ViewSet:
    return generate_views(tuple(f"l{i}" for i in range(10)), 22, seed=17)


def synthetic(num_nodes: int) -> Dataset:
    """Synthetic graph with |E| = 2|V| plus the 22-view suite."""
    return _materialized(
        ("synthetic", num_nodes),
        lambda: random_graph(num_nodes, 2 * num_nodes, seed=17).freeze(),
        _suite22,
    )


def densification(num_nodes: int, alpha: float) -> Dataset:
    return _materialized(
        ("densification", num_nodes, alpha),
        lambda: densification_graph(num_nodes, alpha, seed=19).freeze(),
        _suite22,
    )


# ----------------------------------------------------------------------
# Bounded view suites (promotions of the simulation suites)
# ----------------------------------------------------------------------
def bounded_suite(views: ViewSet, bound: int) -> ViewSet:
    """Promote every view of ``views`` to a bounded view with ``fe = bound``."""
    return ViewSet([
        ViewDefinition(f"{d.name}@{bound}", d.pattern.bounded(default=bound))
        for d in views
    ])


def _bounded(key, base: Dataset, bound: int) -> Dataset:
    graph, plain_views = base
    return _materialized(key, lambda: graph, lambda: bounded_suite(plain_views, bound))


def bounded_dataset(name: str, bound: int, scale: float = 1.0) -> Dataset:
    """Dataset plus a materialized bounded view suite with edge bound k."""
    return _bounded(("bounded", name, bound, scale), dataset(name, scale), bound)


def synthetic_bounded(num_nodes: int, bound: int) -> Dataset:
    return _bounded(("synthetic_bounded", num_nodes, bound), synthetic(num_nodes), bound)


# ----------------------------------------------------------------------
# Query workloads
# ----------------------------------------------------------------------
def pick_query(
    views: ViewSet,
    num_nodes: int,
    num_edges: int,
    graph: Optional[CompactGraph] = None,
    require_dag: bool = False,
) -> Pattern:
    """A query of roughly the requested size, contained in ``views`` by
    construction; when ``graph`` is given, prefer a seed whose query has
    a nonempty answer so timing compares real work, not early exits.

    Memoized on the ``views`` and ``graph`` objects themselves: a pick
    checked against one graph is never reused for another."""
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
            direct = bounded_match if isinstance(query, BoundedPattern) else match
            if direct(query, graph).result_size:
                return query
        return fallback

    return _memo(("query", views, graph, num_nodes, num_edges, require_dag), build)


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
