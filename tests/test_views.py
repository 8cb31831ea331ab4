"""Tests for view definitions, materialization, the distance index I(V),
and the ViewSet cache."""

import random

import pytest

from repro.graph import BoundedPattern, Pattern
from repro.views import MaterializedView, ViewDefinition, ViewSet, materialize
from repro.views.view import materialize as materialize_fn

from repro.simulation import match

from helpers import (
    KERNELS,
    build_bounded,
    build_graph,
    build_pattern,
    dict_extension,
    forced_kernel,
    random_labeled_graph,
)


def simple_graph():
    return build_graph(
        {1: "A", 2: "B", 3: "B", 4: "C"},
        [(1, 2), (1, 3), (2, 4), (3, 4)],
    )


def ab_view(name="V"):
    return ViewDefinition(name, build_pattern({"a": "A", "b": "B"}, [("a", "b")]))


class TestViewDefinition:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            ViewDefinition("", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))

    def test_rejects_edgeless_views(self):
        q = Pattern()
        q.add_node("a", "A")
        with pytest.raises(ValueError):
            ViewDefinition("V", q)

    def test_size_and_kind(self):
        v = ab_view()
        assert v.size == 3
        assert not v.is_bounded
        bounded = ViewDefinition(
            "B", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
        )
        assert bounded.is_bounded


class TestMaterializeSimulation:
    def test_extension_contents(self):
        ext = materialize(ab_view(), simple_graph())
        assert ext.pairs_of(("a", "b")) == {(1, 2), (1, 3)}
        assert not ext.is_empty
        assert ext.num_pairs == 2
        assert ext.distances is None
        assert ext.distance_of((1, 2)) == 1

    def test_empty_extension(self):
        g = build_graph({1: "A"}, [])
        ext = materialize(ab_view(), g)
        assert ext.is_empty
        assert ext.pairs_of(("a", "b")) == set()

    def test_size_counts_nodes_and_pairs(self):
        ext = materialize(ab_view(), simple_graph())
        # Nodes touched: 1, 2, 3; pairs: 2.
        assert ext.size == 3 + 2


class TestMaterializeBounded:
    def test_distance_index(self):
        g = build_graph({1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)])
        view = ViewDefinition(
            "V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 3)])
        )
        ext = materialize(view, g)
        assert ext.pairs_of(("a", "b")) == {(1, 3)}
        assert ext.distance_of((1, 3)) == 2

    def test_index_keeps_minimum_distance(self):
        # Two view edges may materialize the same pair at different
        # depths; I(V) stores the shortest.
        g = build_graph(
            {1: "A", 2: "B", 3: "X"}, [(1, 2), (1, 3), (3, 2)]
        )
        view = ViewDefinition(
            "V",
            build_bounded(
                {"a": "A", "b1": "B", "b2": "B"},
                [("a", "b1", 1), ("a", "b2", 2)],
            ),
        )
        ext = materialize(view, g)
        assert ext.distance_of((1, 2)) == 1

    def test_empty_bounded_extension(self):
        g = build_graph({1: "A"}, [])
        view = ViewDefinition(
            "V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
        )
        ext = materialize(view, g)
        assert ext.is_empty
        assert ext.distances == {}


class TestViewSet:
    def test_add_and_lookup(self):
        vs = ViewSet([ab_view("V1")])
        vs.add(ab_view("V2"))
        assert "V1" in vs and "V2" in vs
        assert len(vs) == 2
        assert vs.cardinality == 2
        assert vs.names() == ["V1", "V2"]

    def test_duplicate_name_rejected(self):
        vs = ViewSet([ab_view("V1")])
        with pytest.raises(ValueError):
            vs.add(ab_view("V1"))

    def test_definition_size(self):
        vs = ViewSet([ab_view("V1"), ab_view("V2")])
        assert vs.definition_size == 6

    def test_materialize_all_and_some(self):
        vs = ViewSet([ab_view("V1"), ab_view("V2")])
        g = simple_graph()
        vs.materialize(g, names=["V1"])
        assert vs.is_materialized("V1")
        assert not vs.is_materialized("V2")
        vs.materialize(g)
        assert vs.is_materialized("V2")

    def test_extension_access_requires_materialization(self):
        vs = ViewSet([ab_view("V1")])
        with pytest.raises(KeyError):
            vs.extension("V1")

    def test_extension_fraction(self):
        vs = ViewSet([ab_view("V1")])
        g = simple_graph()
        vs.materialize(g)
        fraction = vs.extension_fraction(g)
        assert 0 < fraction < 1

    def test_subset_shares_extensions(self):
        vs = ViewSet([ab_view("V1"), ab_view("V2")])
        vs.materialize(simple_graph(), names=["V1"])
        sub = vs.subset(["V1"])
        assert sub.is_materialized("V1")
        assert len(sub) == 1

    def test_set_extension_validates_name(self):
        vs = ViewSet([ab_view("V1")])
        ext = materialize_fn(ab_view("other"), simple_graph())
        with pytest.raises(KeyError):
            vs.set_extension(ext)

    def test_drop_extension(self):
        vs = ViewSet([ab_view("V1")])
        vs.materialize(simple_graph())
        vs.drop_extension("V1")
        assert not vs.is_materialized("V1")


class TestAnswerPipeline:
    def setup_views(self):
        g = simple_graph()
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
        )
        vs = ViewSet(
            [
                ViewDefinition("Vab", q.subpattern([("a", "b")])),
                ViewDefinition("Vbc", q.subpattern([("b", "c")])),
                ViewDefinition("Vextra", ab_view("x").pattern),
            ]
        )
        return g, q, vs

    def test_answer_with_materialize_on_demand(self):
        from repro import answer_with_views, match

        g, q, vs = self.setup_views()
        answer = answer_with_views(q, vs, graph=g)
        assert answer
        assert answer.result.edge_matches == match(q, g).edge_matches
        assert set(answer.views_used) <= set(vs.names())
        assert answer.extension_size > 0

    def test_answer_selection_strategies(self):
        from repro import answer_with_views

        g, q, vs = self.setup_views()
        for selection in ("all", "minimal", "minimum"):
            answer = answer_with_views(q, vs, graph=g, selection=selection)
            assert answer.result.edge_matches[("a", "b")] == {(1, 2), (1, 3)}

    def test_answer_unknown_selection(self):
        from repro import answer_with_views

        g, q, vs = self.setup_views()
        with pytest.raises(ValueError):
            answer_with_views(q, vs, graph=g, selection="bogus")

    def test_answer_not_contained(self):
        from repro import answer_with_views
        from repro.errors import NotContainedError

        g, q, vs = self.setup_views()
        sub = vs.subset(["Vab"])
        with pytest.raises(NotContainedError):
            answer_with_views(q, sub, graph=g)

    def test_answer_bounded(self):
        from repro import answer_with_views, bounded_match

        g = build_graph({1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)])
        q = build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
        vs = ViewSet(
            [
                ViewDefinition(
                    "V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)])
                )
            ]
        )
        answer = answer_with_views(q, vs, graph=g)
        assert answer.result.edge_matches == bounded_match(q, g).edge_matches


class _CountingTable(list):
    """A node table that counts every key it hands out."""

    reads = 0

    def __getitem__(self, i):
        _CountingTable.reads += 1
        return list.__getitem__(self, i)

    def __iter__(self):
        _CountingTable.reads += len(self)
        return list.__iter__(self)


def _counted_snapshot(graph):
    snapshot = graph.freeze()
    snapshot._nodes = _CountingTable(snapshot.node_table)
    _CountingTable.reads = 0
    return snapshot


class TestLazyPayloadViews:
    """A view materialized against a snapshot stores its id rows only:
    node-key sets and ``I(V)`` decode when read, as an attached view's
    do."""

    DEFINITIONS = {
        "plain": ViewDefinition(
            "P", build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        ),
        "bounded": ViewDefinition(
            "B",
            build_bounded(
                {"a": "A", "b": "B", "c": "A"}, [("a", "b", 2), ("b", "c", 2)]
            ),
        ),
    }

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("kind", sorted(DEFINITIONS))
    def test_materializing_decodes_no_node_key_until_read(self, kind, kernel):
        definition = self.DEFINITIONS[kind]
        graph = random_labeled_graph(random.Random(3), 40, 160)
        snapshot = _counted_snapshot(graph)
        with forced_kernel(kernel):
            view = materialize(definition, snapshot)
        assert not view.is_empty
        assert view.num_pairs and view.size  # counted off the rows
        assert _CountingTable.reads == 0
        edge_matches, distances = dict_extension(definition, graph)
        if view.distances is not None:
            assert view.distance_of(next(iter(distances))) >= 1
            assert _CountingTable.reads > 0
            _CountingTable.reads = 0
        edge = next(iter(view.edge_matches))
        assert view.pairs_of(edge) == edge_matches[edge]
        assert _CountingTable.reads > 0
        assert view.edge_matches == edge_matches
        assert view.distances == distances

    def test_in_process_lazy_distances_equal_the_eager_reference(self, tmp_path):
        from repro.graph.snapshot import SnapshotStore

        definition = self.DEFINITIONS["bounded"]
        graph = random_labeled_graph(random.Random(4), 40, 160)
        snapshot = graph.freeze()
        view = materialize(definition, snapshot)
        payload = view.compact
        assert payload.store.backend == "bytes"  # in process: no file
        decode = snapshot.node_of
        eager = {
            (decode(v), decode(w)): d for (v, w), d in payload.distances.items()
        }
        assert eager and view.distances == eager
        assert dict(view.distances.items()) == eager
        assert all(view.distance_of(pair) == d for pair, d in eager.items())
        assert view.distances == dict_extension(definition, graph)[1]
        catalog = ViewSet([definition])
        catalog.set_extension(view)
        SnapshotStore.save(tmp_path / "snap", snapshot, views=catalog)
        revived = SnapshotStore.load(tmp_path / "snap").views[definition.name]
        assert revived.distances == eager
        assert revived.edge_matches == view.edge_matches

    def test_by_target_index_is_built_by_a_probe_shared_and_never_stored(
        self, tmp_path, monkeypatch
    ):
        """MatchJoin's by-target index exists only once a query probes
        a view edge; a ``rebound`` clone shares it, and neither the
        payload's store nor a saved snapshot carries it."""
        import os
        from pathlib import Path

        from repro.core import matchjoin
        from repro.engine import QueryEngine
        from repro.graph.snapshot import SnapshotStore, live_directory

        graph = random_labeled_graph(random.Random(6), 60, 400, labels="AB")
        views = ViewSet(
            ViewDefinition(name, build_pattern({"x": x, "y": y}, [("x", "y")]))
            for name, x, y in (("AB", "A", "B"), ("BA", "B", "A"))
        )
        engine = QueryEngine(views, graph=graph, answer_cache_size=0)
        engine.materialize_views(views.names())
        query = build_pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        assert engine.plan(query).strategy == "matchjoin"
        snapshot = engine.snapshot()
        payloads = [view.compact for view in engine.views.extensions().values()]

        def indexed(payload):
            return dict.__len__(payload.by_target)

        def stored_forms(directory):
            SnapshotStore.save(directory, snapshot, views=engine.views)
            live = Path(live_directory(directory))
            return {
                name: (live / name).read_bytes()
                for name in os.listdir(live)
                if name.startswith("view-")
            }

        assert not any(map(indexed, payloads))  # materialise + plan: none
        stores = [bytes(payload.store.segment.buf) for payload in payloads]
        saved = stored_forms(tmp_path / "before")
        assert saved

        monkeypatch.setattr(matchjoin, "probes", lambda live, targets, rows: True)
        assert engine.answer(query).edge_matches == match(query, graph).edge_matches
        assert all(map(indexed, payloads))

        assert [bytes(payload.store.segment.buf) for payload in payloads] == stores
        assert stored_forms(tmp_path / "after") == saved
        loaded = SnapshotStore.load(tmp_path / "after")
        assert not any(indexed(view.compact) for view in loaded.views.values())

        refreshed = snapshot.applied([("insert", 0, 1)])  # a batch keeps every id
        for payload in payloads:
            clone = payload.rebound(refreshed)
            assert clone.by_target is payload.by_target
            view_edge = payload.edge_order[0]
            assert clone.by_target[view_edge] is payload.by_target[view_edge]
