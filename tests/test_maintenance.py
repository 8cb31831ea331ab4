"""Tests for incremental view maintenance."""

import random

import pytest

from repro.graph import BoundedPattern, DataGraph
from repro.views import Delta, ViewDefinition
from repro.views.maintenance import IncrementalView, IncrementalViewSet
from repro.views.view import materialize

from helpers import apply_ops, build_graph, build_pattern, random_labeled_graph


def chain_view():
    return ViewDefinition(
        "chain", build_pattern({"a": "A", "b": "B"}, [("a", "b")])
    )


def track(view, graph):
    """A one-view tracker over ``graph``'s snapshot (``graph`` itself
    stays as it is: tests move it by the same ops, as a mirror)."""
    return IncrementalViewSet([view], graph)


def random_ops(rng, graph, rounds, population):
    """Up to ``rounds`` ops valid in sequence against ``graph``."""
    present = set(graph.edges())
    ops = []
    for _ in range(rounds):
        if rng.random() < 0.5 and present:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            ops.append(("delete", *edge))
        else:
            a, b = rng.randrange(population), rng.randrange(population)
            if a == b or (a, b) in present:
                continue
            present.add((a, b))
            ops.append(("insert", a, b))
    return ops


class TestBasics:
    def test_rejects_bounded_views(self):
        q = BoundedPattern()
        q.add_node("a", "A")
        q.add_node("b", "B")
        q.add_edge("a", "b", 2)
        with pytest.raises(TypeError):
            IncrementalView(ViewDefinition("b", q), DataGraph())

    def test_initial_extension_matches_materialize(self):
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2), (1, 3)])
        tracker = track(chain_view(), g)
        fresh = materialize(chain_view(), g)
        assert tracker.extension("chain").edge_matches == fresh.edge_matches

    def test_tracker_maintains_the_graph_it_is_given(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        tracker = track(chain_view(), g)
        first = tracker.graph
        assert first is g.freeze()
        tracker.apply_delta(Delta().delete(1, 2))
        assert not tracker.graph.has_edge(1, 2)
        assert tracker.graph.extends_token == first.snapshot_token
        assert first.has_edge(1, 2) and g.has_edge(1, 2)  # neither is changed
        assert tracker.extension("chain").is_empty


class TestDeletion:
    def test_single_deletion(self):
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2), (1, 3)])
        tracker = track(chain_view(), g)
        tracker.apply_delta(Delta().delete(1, 2))
        assert tracker.extension("chain").pairs_of(("a", "b")) == {(1, 3)}

    def test_deletion_cascade(self):
        view = ViewDefinition(
            "chain3",
            build_pattern(
                {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
            ),
        )
        g = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
        tracker = track(view, g)
        assert tracker.extension("chain3").num_pairs == 2
        # Deleting b->c invalidates node 2 as a match of "b", which in
        # turn kills the (1,2) pair of edge (a,b).
        tracker.apply_delta(Delta().delete(2, 3))
        assert tracker.extension("chain3").is_empty

    def test_deletion_to_empty_then_more_deletions(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2), (2, 1)])
        tracker = track(chain_view(), g)
        tracker.apply_delta(Delta().delete(1, 2))
        assert tracker.extension("chain").is_empty
        tracker.apply_delta(Delta().delete(2, 1))  # must not crash on an empty view
        assert tracker.extension("chain").is_empty

    def test_self_loop_deletion_in_a_same_label_cycle(self):
        # x -> y -> x, both A: the self-loop (3, 3) witnesses both view
        # edges.  Dropping 3 from sim[x] for the first must not skip
        # decrementing the second's counter, or a dead pair survives.
        view = ViewDefinition(
            "cycle",
            build_pattern({"x": "A", "y": "A"}, [("x", "y"), ("y", "x")]),
        )
        g = build_graph(
            {0: "A", 1: "A", 2: "A", 3: "A"}, [(1, 3), (3, 0), (3, 3)]
        )
        tracker = track(view, g)
        tracker.apply_delta(Delta().delete(3, 3))
        g.remove_edge(3, 3)
        fresh = materialize(view, g)
        assert fresh.is_empty
        assert tracker.extension("cycle").edge_matches == fresh.edge_matches


class TestInsertion:
    def test_relevant_insertion_adds_matches(self):
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2)])
        tracker = track(chain_view(), g)
        tracker.apply_delta(Delta().insert(1, 3))
        assert tracker.extension("chain").pairs_of(("a", "b")) == {(1, 2), (1, 3)}

    def test_irrelevant_insertion_is_noop(self):
        g = build_graph({1: "A", 2: "B", 3: "C", 4: "C"}, [(1, 2)])
        tracker = track(chain_view(), g)
        before = tracker.extension("chain").edge_matches
        report = tracker.apply_delta(Delta().insert(3, 4))  # C->C cannot touch A->B
        assert report.changed_views == ()
        assert tracker.extension("chain").edge_matches == before

    def test_insertion_revives_empty_view(self):
        g = build_graph({1: "A", 2: "B"}, [])
        tracker = track(chain_view(), g)
        assert tracker.extension("chain").is_empty
        tracker.apply_delta(Delta().insert(1, 2))
        assert tracker.extension("chain").pairs_of(("a", "b")) == {(1, 2)}

    def test_duplicate_insertion_ignored(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        tracker = track(chain_view(), g)
        report = tracker.apply_delta(Delta().insert(1, 2))
        assert (report.applied, report.skipped) == (0, 1)
        assert tracker.extension("chain").num_pairs == 1


class TestIncrementalViewSet:
    def make(self):
        g = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"},
            [(1, 2), (2, 3), (1, 4)],
        )
        definitions = [
            ViewDefinition("ab", build_pattern({"a": "A", "b": "B"}, [("a", "b")])),
            ViewDefinition("bc", build_pattern({"b": "B", "c": "C"}, [("b", "c")])),
        ]
        return g, definitions, IncrementalViewSet(definitions, g)

    def test_initial_snapshot(self):
        g, definitions, tracked = self.make()
        for definition in definitions:
            fresh = materialize(definition, g)
            assert tracked.extension(definition.name).edge_matches == fresh.edge_matches

    def test_shared_deletion_updates_all_views(self):
        g, _, tracked = self.make()
        tracked.apply_delta(Delta().delete(2, 3))
        assert tracked.extension("bc").is_empty
        assert tracked.extension("ab").pairs_of(("a", "b")) == {(1, 2), (1, 4)}

    def test_shared_insertion(self):
        g, _, tracked = self.make()
        tracked.apply_delta(Delta().insert(4, 3))
        assert tracked.extension("bc").pairs_of(("b", "c")) == {(2, 3), (4, 3)}

    def test_update_stream_matches_rematerialization(self):
        rng = random.Random(11)
        g = random_labeled_graph(rng, 25, 70)
        definitions = [
            ViewDefinition("v1", build_pattern({"x": "A", "y": "B"}, [("x", "y")])),
            ViewDefinition(
                "v2",
                build_pattern({"x": "B", "y": "C", "z": "A"}, [("x", "y"), ("y", "z")]),
            ),
        ]
        tracked = IncrementalViewSet(definitions, g)
        for op in random_ops(rng, g, 30, 25):
            tracked.apply_delta(Delta([op]))
            apply_ops(g, [op])
        for definition in definitions:
            fresh = materialize(definition, g)
            assert tracked.extension(definition.name).edge_matches == fresh.edge_matches


class TestAgainstRematerialization:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_update_streams(self, seed):
        rng = random.Random(seed)
        g = random_labeled_graph(rng, 30, 80)
        view = ViewDefinition(
            "v",
            build_pattern(
                {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
            ),
        )
        tracker = track(view, g)
        for op in random_ops(rng, g, 40, 30):
            tracker.apply_delta(Delta([op]))
            apply_ops(g, [op])
            fresh = materialize(view, g)
            assert tracker.extension("v").edge_matches == fresh.edge_matches
