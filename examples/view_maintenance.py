"""Keeping cached views fresh while the social graph changes.

A recommendation service caches pattern views and answers queries from
them (never touching the big graph).  The graph keeps evolving: follows
appear and disappear.  This example drives the delta-driven maintenance
pipeline end to end:

* a day of churn arrives as batched :class:`~repro.views.Delta` updates
  applied through the engine to the
  :class:`~repro.views.maintenance.IncrementalViewSet` it attached --
  one graph, updated in place; deletions prune only the affected matches, insertions revive
  matches inside the affected area, irrelevant updates are near-free;
* the :class:`~repro.engine.QueryEngine` follows the stream and keeps its
  answer cache keyed per view: queries over views the churn never
  touched keep hitting the cache while the changed views' answers
  refresh;
* the maintained cache is asserted equal to a from-scratch
  rematerialization, and the per-update cost is compared against
  rematerializing on every update.

Run:  python examples/view_maintenance.py
"""

import random
import time

from repro import DataGraph, Pattern, ViewDefinition, match
from repro.engine import QueryEngine
from repro.views import Delta, ViewSet
from repro.views.maintenance import IncrementalViewSet
from repro.views.view import materialize


def build_graph(num_nodes: int = 5_000, num_edges: int = 15_000, seed: int = 3):
    rng = random.Random(seed)
    roles = ("user", "creator", "curator")
    g = DataGraph()
    for node in range(num_nodes):
        g.add_node(node, labels=roles[rng.randrange(3)])
    added = 0
    while added < num_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
            added += 1
    return g, rng


def influence_view() -> ViewDefinition:
    """Creators followed by curators who follow other creators."""
    p = Pattern()
    p.add_node("creator", "creator")
    p.add_node("curator", "curator")
    p.add_node("next", "creator")
    p.add_edge("curator", "creator")
    p.add_edge("curator", "next")
    return ViewDefinition("influence", p)


def audience_view() -> ViewDefinition:
    """Users following curators -- churn below rarely touches this."""
    p = Pattern()
    p.add_node("user", "user")
    p.add_node("curator", "curator")
    p.add_edge("user", "curator")
    return ViewDefinition("audience", p)


def main() -> None:
    graph, rng = build_graph()
    definitions = [influence_view(), audience_view()]

    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)

    influence_q = influence_view().pattern
    audience_q = audience_view().pattern
    engine.answer(influence_q)
    engine.answer(audience_q)
    print(f"initial extension: "
          f"{tracker.extension('influence').num_pairs} influence pairs, "
          f"{tracker.extension('audience').num_pairs} audience pairs")

    # A day of graph churn in batched deltas: follows between creators
    # and curators appear and disappear; the audience view's user ->
    # curator edges are mostly left alone.
    creators_curators = [
        node for node in tracker.graph.nodes()
        if tracker.graph.labels(node) & {"creator", "curator"}
    ]
    churn_sources = set(creators_curators[:2000])
    edges = [
        edge for edge in tracker.graph.edges()
        if edge[0] in churn_sources
    ]
    batches = []
    deletions = rng.sample(edges, 300)
    cursor = 0
    while cursor < len(deletions):
        delta = Delta()
        for edge in deletions[cursor : cursor + 25]:
            delta.delete(*edge)
        inserted = 0
        while inserted < 25:
            a = rng.choice(creators_curators)
            b = rng.choice(creators_curators)
            if a != b and not tracker.graph.has_edge(a, b):
                delta.insert(a, b)
                inserted += 1
        batches.append(delta)
        cursor += 25

    t0 = time.perf_counter()
    changed_rounds = 0
    audience_hits = 0
    for delta in batches:
        report = engine.apply_delta(delta)
        if report.changed_views:
            changed_rounds += 1
        # The engine refreshes only what each batch changed: answers
        # over the untouched audience view keep hitting the cache.
        engine.answer(influence_q)
        if engine.answer(audience_q).stats.cache_hit:
            audience_hits += 1
    t_stream = time.perf_counter() - t0

    t0 = time.perf_counter()
    fresh = materialize(influence_view(), tracker.graph)
    t_fresh = time.perf_counter() - t0

    maintained = tracker.extension("influence")
    assert maintained.edge_matches == fresh.edge_matches
    assert (
        tracker.extension("audience").edge_matches
        == materialize(audience_view(), tracker.graph).edge_matches
    )
    stats = tracker.stats()["influence"]
    total_updates = sum(len(d) for d in batches)
    print(f"after churn: {maintained.num_pairs} influence pairs")
    print(f"{total_updates} updates in {len(batches)} delta batches "
          f"maintained in {t_stream * 1000:8.1f} ms "
          f"({t_stream / total_updates * 1e6:.0f} us/update, "
          f"queries served throughout)")
    print(f"  influence: {stats.incremental_inserts} incremental / "
          f"{stats.irrelevant_inserts} irrelevant inserts, "
          f"{stats.deletions} deletions, "
          f"{stats.revived_pairs} pairs revived, "
          f"{stats.removed_pairs} pruned")
    print(f"  audience answer cache hits: {audience_hits}/{len(batches)} "
          f"batches (churn touched it rarely)")
    print(f"one fresh rematerialization: {t_fresh * 1000:8.1f} ms "
          f"-- rematerializing per update would cost "
          f"{t_fresh * total_updates * 1000:.0f} ms for this churn")
    print("maintained extensions == fresh rematerialization: OK")


if __name__ == "__main__":
    main()
