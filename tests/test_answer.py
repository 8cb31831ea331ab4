"""Tests for the end-to-end Answer pipeline (repro.core.answer)."""

import random

import pytest

from repro import answer_with_views, bounded_match, match
from repro.core.answer import Answer
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.rewriting import hybrid_answer, hybrid_join, partial_answer
from repro.datasets import generate_views, query_from_views, random_graph
from repro.errors import NotContainedError, NotMaterializedError
from repro.views import ViewDefinition, ViewSet

from helpers import build_bounded, build_graph, build_pattern


def make_setup():
    g = build_graph(
        {1: "A", 2: "B", 3: "C", 4: "B"},
        [(1, 2), (2, 3), (1, 4), (4, 3)],
    )
    q = build_pattern(
        {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
    )
    views = ViewSet(
        [
            ViewDefinition("Vab", q.subpattern([("a", "b")])),
            ViewDefinition("Vbc", q.subpattern([("b", "c")])),
            ViewDefinition("Vunused", build_pattern({"x": "C", "y": "B"}, [("x", "y")])),
        ]
    )
    return g, q, views


class TestProvenance:
    def test_answer_fields(self):
        g, q, views = make_setup()
        views.materialize(g)
        answer = answer_with_views(q, views)
        assert isinstance(answer, Answer)
        assert bool(answer)
        assert set(answer.views_used) == {"Vab", "Vbc"}
        assert answer.extension_size > 0
        assert answer.containment.holds

    def test_unused_views_not_materialized_on_demand(self):
        g, q, views = make_setup()
        answer = answer_with_views(q, views, graph=g)
        assert answer.result.edge_matches == match(q, g).edge_matches
        # Only the needed views were materialized.
        assert views.is_materialized("Vab")
        assert views.is_materialized("Vbc")
        assert not views.is_materialized("Vunused")

    def test_missing_extension_without_graph(self):
        g, q, views = make_setup()
        with pytest.raises(NotMaterializedError, match="Vab"):
            answer_with_views(q, views)

    def test_not_contained_error_carries_edges(self):
        g, q, views = make_setup()
        sub = views.subset(["Vab"])
        with pytest.raises(NotContainedError) as err:
            answer_with_views(q, sub, graph=g)
        assert ("b", "c") in err.value.uncovered

    def test_empty_result_is_falsy(self):
        g, q, views = make_setup()
        g2 = build_graph({1: "A", 2: "B"}, [(1, 2)])  # no C at all
        views2 = ViewSet([views.definition("Vab"), views.definition("Vbc")])
        views2.materialize(g2)
        answer = answer_with_views(q, views2, graph=g2)
        assert not answer
        assert answer.result.result_size == 0


class TestDispatch:
    def test_optimized_flag_forwarded(self):
        g, q, views = make_setup()
        views.materialize(g)
        fast = answer_with_views(q, views, optimized=True)
        slow = answer_with_views(q, views, optimized=False)
        assert fast.result.edge_matches == slow.result.edge_matches

    def test_bounded_query_dispatch(self):
        g = build_graph({1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)])
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
        views = ViewSet(
            [ViewDefinition("V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)]))]
        )
        answer = answer_with_views(q, views, graph=g)
        assert answer.result.edge_matches == bounded_match(q, g).edge_matches

    def test_plain_query_bounded_views_dispatch(self):
        """A plain query over a bounded view cache goes through the
        bounded machinery with promoted bounds."""
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        views = ViewSet(
            [ViewDefinition("V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 3)]))]
        )
        answer = answer_with_views(q, views, graph=g)
        assert answer.result.edge_matches == {("a", "b"): {(1, 2)}}

    @pytest.mark.parametrize("selection", ["all", "minimal", "minimum"])
    def test_selection_strategies_same_answer(self, selection):
        g, q, views = make_setup()
        answer = answer_with_views(q, views, graph=g, selection=selection)
        assert answer.result.edge_matches == match(q, g).edge_matches

    def test_unknown_selection_rejected(self):
        g, q, views = make_setup()
        with pytest.raises(ValueError):
            answer_with_views(q, views, graph=g, selection="best")


class TestAMutatedGraph:
    """Views materialized, the graph mutated, one needed view
    rematerialized: the extensions span two snapshots.  MatchJoin over
    them refuses; the wrappers rematerialize every view not on the
    graph's current snapshot and answer for it.  (Seed 0 is one where
    joining the mixed extensions by node keys answered wrong.)"""

    @staticmethod
    def mutated(seed=0):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(150, 400, labels=labels, seed=seed)
        views = ViewSet(generate_views(labels, 8, seed=seed))
        views.materialize(graph)
        query = query_from_views(views, 4, 6, seed=seed)
        containment = contains(query, views)
        assert containment.holds
        rng = random.Random(seed)
        nodes = sorted(graph.nodes(), key=repr)
        for _ in range(60):
            graph.add_edge(*rng.sample(nodes, 2))
        names = sorted({n for refs in containment.mapping.values() for n, _ in refs})
        assert len(names) > 1
        return graph, views, query, containment, names

    def test_joins_over_two_snapshots_are_refused(self):
        graph, views, query, containment, names = self.mutated()
        extensions = views.extensions()
        # One snapshot, but not the graph's current one.
        with pytest.raises(ValueError, match="not materialized on this graph"):
            hybrid_join(query, containment, extensions, graph)
        views.materialize(graph, names=names[:1])
        extensions = views.extensions()
        for join in (
            lambda: match_join(query, containment, extensions),
            lambda: match_join(query, containment, extensions, optimized=False),
            lambda: hybrid_join(query, containment, extensions, graph),
        ):
            with pytest.raises(ValueError, match="2 snapshots") as refused:
                join()
            assert all(repr(name) in str(refused.value) for name in names)

    @pytest.mark.parametrize("wrapper", ["answer_with_views", "partial_answer", "hybrid_answer"])
    def test_the_wrappers_answer_for_the_graph_they_are_given(self, wrapper):
        graph, views, query, _, names = self.mutated()
        views.materialize(graph, names=names[:1])
        if wrapper == "answer_with_views":
            result = answer_with_views(query, views, graph).result
        elif wrapper == "partial_answer":
            answered = partial_answer(query, views, graph)
            assert answered.coverage == 1.0
            result = answered.result
        else:
            result = hybrid_answer(query, views, graph)
        assert result.edge_matches == match(query, graph).edge_matches
        tokens = {views.extension(name).compact.token for name in names}
        assert tokens == {graph.freeze().snapshot_token}
