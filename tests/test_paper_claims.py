"""Integration tests pinning the paper's qualitative claims at small scale.

These run the real dataset generators + view suites + query workloads
(scaled down for test speed) and assert the *claims* the evaluation
makes, so a regression in any layer shows up as a broken claim rather
than a silent benchmark drift.
"""

import time

import pytest

from helpers import matchjoin_metrics
from repro.bench.reporting import timed
from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bminimal import bounded_minimal_views
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.datasets import (
    amazon_graph,
    amazon_views,
    citation_graph,
    citation_views,
    query_from_views,
    youtube_graph,
    youtube_views,
)
from repro.bench.workloads import (
    bounded_suite,
    densification,
    overlapping_views,
    pick_query,
)
from repro.simulation import bounded_match, match


@pytest.fixture(scope="module")
def amazon():
    graph = amazon_graph(8000, 24000, seed=5)
    views = amazon_views()
    views.materialize(graph)
    return graph, views


@pytest.fixture(scope="module")
def citation():
    graph = citation_graph(8000, 20000, seed=5)
    views = citation_views()
    views.materialize(graph)
    return graph, views


@pytest.fixture(scope="module")
def youtube():
    graph = youtube_graph(8000, 23000, seed=5)
    views = youtube_views()
    views.materialize(graph)
    return graph, views


class TestTheorem1OnDatasets:
    """MatchJoin == Match on every dataset for stitched workloads."""

    @pytest.mark.parametrize("seed", range(4))
    def test_amazon(self, amazon, seed):
        graph, views = amazon
        query = query_from_views(views, 5, 8, seed=seed)
        containment = contains(query, views)
        assert containment.holds
        assert (
            match_join(query, containment, views).edge_matches
            == match(query, graph).edge_matches
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_citation(self, citation, seed):
        graph, views = citation
        query = query_from_views(views, 5, 8, seed=seed, require_dag=True)
        containment = contains(query, views)
        assert containment.holds
        assert (
            match_join(query, containment, views).edge_matches
            == match(query, graph).edge_matches
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_youtube(self, youtube, seed):
        graph, views = youtube
        query = query_from_views(views, 5, 8, seed=seed)
        containment = contains(query, views)
        assert containment.holds
        assert (
            match_join(query, containment, views).edge_matches
            == match(query, graph).edge_matches
        )


class TestTheorem8OnDatasets:
    def test_bounded_amazon(self, amazon):
        graph, plain_views = amazon
        views = bounded_suite(plain_views, 2, tag="claims-amazon")
        views.materialize(graph)
        query = query_from_views(views, 4, 6, seed=1)
        containment = bounded_contains(query, views)
        assert containment.holds
        minimal = bounded_minimal_views(query, views)
        assert (
            bounded_match_join(query, minimal, views).edge_matches
            == bounded_match(query, graph).edge_matches
        )


class TestPerformanceClaims:
    """Directional performance claims -- generous margins so CI noise
    cannot flake them, but a complexity regression still trips them."""

    def test_matchjoin_beats_match_on_youtube(self, youtube):
        graph, views = youtube
        query = query_from_views(views, 5, 8, seed=0)
        containment = minimal_views(query, views)
        t_match = timed(match, query, graph, repeat=2)
        t_join = timed(match_join, query, containment, views, repeat=2)
        assert t_join < t_match

    def test_containment_analysis_under_budget(self, youtube):
        """Paper: containment checking takes < 0.5s on complex patterns."""
        graph, views = youtube
        query = query_from_views(views, 8, 12, seed=2)
        start = time.perf_counter()
        minimal_views(query, views)
        minimum_views(query, views)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_extension_fraction_below_one(self, amazon, citation, youtube):
        """V(G) is nonempty and (much) smaller than G on every dataset."""
        for graph, views in (amazon, citation, youtube):
            assert 0 < views.extension_fraction(graph) < 0.6

    def test_minimum_never_larger_than_minimal_on_suites(self, youtube):
        graph, views = youtube
        cases = [(views, query_from_views(views, 5, 8, seed=s)) for s in range(4)]
        # Fig. 8(h)'s suite: small views listed first, composites last.
        overlapping, composites = overlapping_views()
        cases += [
            (overlapping, query_from_views(composites, n, m, seed=1))
            for n, m in ((6, 6), (8, 16), (10, 20))
        ]
        for suite, query in cases:
            minimum = minimum_views(query, suite)
            minimal = minimal_views(query, suite)
            assert minimum.holds and minimal.holds
            assert len(minimum.views_used()) <= len(minimal.views_used())

    def test_views_used_in_paper_band(self, amazon, citation, youtube):
        """Paper: 3-6 views answer a YouTube query; the Amazon and
        Citation suites stay in the same band."""
        suites = ((youtube, False), (amazon, False), (citation, True))
        for (graph, views), dag in suites:
            for seed in range(4):
                query = query_from_views(
                    views, 5, 8, seed=seed, require_dag=dag
                )
                used = len(minimum_views(query, views).views_used())
                assert 1 <= used <= 6


class TestRankOptimization:
    """Fig. 8(f) as a count: on densification graphs (|E| = |V|^alpha)
    the rank-ordered kernel makes fewer edge sweeps than the literal
    Fig. 2 loop, whose every pass sweeps all of E_Q, and both return the
    same answer."""

    @pytest.mark.parametrize("alpha", [1.0, 1.1, 1.25])
    @pytest.mark.parametrize("num_nodes", [500, 3000])
    def test_fewer_edge_sweeps_than_naive_passes(self, num_nodes, alpha):
        graph, views = densification(num_nodes, alpha)
        query = pick_query(
            views, 4, 6, graph=graph, tag=f"dens{num_nodes}:{alpha}"
        )
        minimum = minimum_views(query, views)
        with matchjoin_metrics() as count:
            optimized = match_join(query, minimum, views)
            naive = match_join(query, minimum, views, optimized=False)
            sweeps = sum(count("sweeps_total", p) for p in ("ids", "keys"))
            passes = count("sweeps_total", "naive")
        assert optimized.result_size > 0
        assert optimized.edge_matches == naive.edge_matches
        assert sweeps < passes * query.num_edges
