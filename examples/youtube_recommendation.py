"""Video recommendation analysis with the Fig. 7 predicate views.

Uses the YouTube-like network and the paper's twelve views P1..P12,
whose nodes carry Boolean search conditions over video attributes
(category C, age A, length L, rate R, visits V).  A content analyst
asks for "popular highly-rated Music videos recommending each other,
feeding Sports content" -- stitched from cached view shapes so the
query is answerable from the cache.

Run:  python examples/youtube_recommendation.py
"""

import time

from repro import P, Pattern, answer_with_views, match
from repro.datasets import youtube_graph, youtube_views


def analyst_query() -> Pattern:
    """Popular Music videos in mutual recommendation (view P1's shape)
    that are also cross-linked both ways with Sports content (view
    P11's shape).

    Each node condition and each edge's local shape matches a cached
    view, so the query is contained in the view set -- an analyst whose
    query strays outside the cached shapes gets a NotContainedError
    listing the uncovered edges instead (Theorem 1: no view-only
    rewriting exists then; a QueryEngine with the graph answers such a
    query directly, and ``repro.views.selection.select_views_for_workload``
    picks a view set that covers a known workload, Section VIII).
    """
    music_popular = (P("C") == "Music") & (P("V") >= 10_000)
    music_rated = (P("C") == "Music") & (P("R") >= 4)
    sports = P("C") == "Sports"

    q = Pattern()
    q.add_node("hit", music_popular)
    q.add_node("quality", music_rated)
    q.add_node("cross", sports)
    q.add_edge("hit", "quality")
    q.add_edge("quality", "hit")
    q.add_edge("cross", "hit")
    q.add_edge("hit", "cross")
    return q


def main() -> None:
    print("building YouTube-like recommendation network ...")
    graph = youtube_graph()
    print(f"  {graph.num_nodes} videos, {graph.num_edges} related-list edges")

    views = youtube_views()
    t0 = time.perf_counter()
    views.materialize(graph)
    print(f"materialized {views.cardinality} predicate views in "
          f"{time.perf_counter() - t0:.2f}s; extensions are "
          f"{views.extension_fraction(graph):.1%} of |G|")

    query = analyst_query()

    t0 = time.perf_counter()
    direct = match(query, graph)
    t_direct = time.perf_counter() - t0

    t0 = time.perf_counter()
    answer = answer_with_views(query, views, selection="minimum")
    t_views = time.perf_counter() - t0
    assert answer.result.edge_matches == direct.edge_matches

    print(f"\ndirect Match:       {t_direct * 1000:7.1f} ms")
    print(f"view-based answer:  {t_views * 1000:7.1f} ms "
          f"({t_views / t_direct:.0%} of direct, views {answer.views_used})")

    pairs = sorted(answer.result.edge_matches_of(("hit", "quality")))[:5]
    print(f"\n{answer.result.result_size} match pairs; sample mutual "
          f"recommendations (hit -> quality): {pairs}")


if __name__ == "__main__":
    main()
