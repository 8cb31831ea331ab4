"""The delta-driven maintenance pipeline, end to end.

Property-based equivalence: random interleaved insert/delete/batch
streams must leave every layer -- view trackers, the frozen
``CompactGraph`` snapshot, the ``ShardedGraph`` composite snapshot and
the ``QueryEngine`` caches -- in exactly the state a from-scratch
rebuild would produce, while touching only the affected area:

* incremental view state == from-scratch rematerialization after every
  update, across dict, compact and sharded backends, for every
  affected-area budget (including the fallback boundary);
* refreshed snapshots == freshly built snapshots, with unchanged
  adjacency rows / shard snapshots reused by reference and pre-existing
  ids stable;
* engine answer caches retain entries for plans that read only
  unchanged views, and evict exactly the rest.
"""

import random

import pytest

from helpers import build_graph, build_pattern, random_labeled_graph
from repro.engine import QueryEngine
from repro.graph.compact import CompactGraph
from repro.graph.digraph import DataGraph
from repro.shard.sharded import ShardedGraph
from repro.shard.psim import sharded_match
from repro.simulation import match
from repro.views import Delta, ViewDefinition, ViewSet, bind_extension, materialize
from repro.views.maintenance import IncrementalView, IncrementalViewSet


def _definitions():
    return [
        ViewDefinition("AB", build_pattern({"a": "A", "b": "B"}, [("a", "b")])),
        ViewDefinition("BC", build_pattern({"b": "B", "c": "C"}, [("b", "c")])),
        ViewDefinition(
            "ABC",
            build_pattern(
                {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
            ),
        ),
    ]


def _stream(rng, graph, rounds, fresh_nodes=0):
    """Random interleaved ops, valid against the evolving graph; node
    keys may exceed the current node set (``add_edge`` auto-creates)."""
    population = len(graph) + fresh_nodes
    ops = []
    present = set(graph.edges())
    for _ in range(rounds):
        if present and rng.random() < 0.45:
            edge = rng.choice(sorted(present, key=repr))
            ops.append(("delete", *edge))
            present.discard(edge)
        else:
            source, target = rng.randrange(population), rng.randrange(population)
            if source == target or (source, target) in present:
                continue
            ops.append(("insert", source, target))
            present.add((source, target))
    return ops


class TestDelta:
    def test_builder_and_ops(self):
        delta = Delta().insert(1, 2).delete(2, 3).insert(3, 4)
        assert len(delta) == 3
        assert delta.ops == (
            ("insert", 1, 2),
            ("delete", 2, 3),
            ("insert", 3, 4),
        )
        assert bool(delta)
        assert not Delta()

    def test_rejects_unknown_ops(self):
        with pytest.raises(ValueError):
            Delta([("upsert", 1, 2)])

    def test_parse_text_stream(self):
        delta = Delta.parse(
            [
                "# churn",
                "+ 1 2",
                "",
                '- 2 "v3"',
                "insert a b",
                "delete 4 5",
            ]
        )
        assert delta.ops == (
            ("insert", 1, 2),
            ("delete", 2, "v3"),
            ("insert", "a", "b"),
            ("delete", 4, 5),
        )

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            Delta.parse(["+ 1"])
        with pytest.raises(ValueError):
            Delta.parse(["? 1 2"])

    def test_parse_errors_name_the_offending_line(self):
        # Too few tokens: a clear ValueError, not a bare IndexError.
        with pytest.raises(ValueError, match=r"line 3"):
            Delta.parse(["# header", "+ 1 2", "+ 9"])
        # Trailing junk tokens are rejected, not silently dropped.
        with pytest.raises(ValueError, match=r"line 2.*got 4"):
            Delta.parse(["+ 1 2", "- 3 4 extra"])
        # Unknown ops name the line too (blank/comment lines still
        # count toward the reported number -- it must match the file).
        with pytest.raises(ValueError, match=r"'\?' on line 4"):
            Delta.parse(["+ 1 2", "", "# note", "? 1 2"])


class TestConstructorSatellites:
    def test_shared_constructor_parameter(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        owned = IncrementalView(_definitions()[0], g)
        assert owned.graph is not g  # defensive copy
        shared = IncrementalView(_definitions()[0], g, shared=True)
        assert shared.graph is g

    def test_shared_tracker_rejects_direct_updates(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        tracked = IncrementalViewSet(_definitions(), g)
        view = tracked._trackers["AB"]
        with pytest.raises(RuntimeError):
            view.insert_edge(1, 2)
        with pytest.raises(RuntimeError):
            view.delete_edge(1, 2)

    def test_delete_edge_noops_on_missing_edge(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        tracker = IncrementalView(_definitions()[0], g)
        assert tracker.delete_edge(2, 1) is False  # never existed
        assert tracker.extension().num_pairs == 1
        tracked = IncrementalViewSet(_definitions(), g)
        assert tracked.delete_edge(9, 9) is False
        assert tracked.seq == 0  # no state change, nothing to sync

    def test_extension_cached_behind_dirty_flag(self):
        g = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
        tracker = IncrementalView(_definitions()[0], g)
        first = tracker.extension()
        assert tracker.extension() is first  # no rebuild between reads
        tracker.insert_edge(3, 1)  # irrelevant for an A->B view
        assert tracker.extension() is first  # provably unchanged: kept
        builds_before = tracker.stats.extension_builds
        tracker.delete_edge(1, 2)  # changes the match set
        second = tracker.extension()
        assert second is not first
        assert tracker.stats.extension_builds == builds_before + 1


class TestBudgetBoundary:
    def _setup(self, budget):
        pattern = build_pattern(
            {"a": "A", "b": "B", "c": "C", "d": "D"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        graph = DataGraph()
        # A complete witness chain keeps the view non-empty ...
        for node, label in zip(range(10, 14), "ABCD"):
            graph.add_node(node, labels=label)
        graph.add_edge(10, 11)
        graph.add_edge(11, 12)
        graph.add_edge(12, 13)
        # ... while a broken chain misses its last hop: inserting it
        # revives exactly three pairs -- (c,2), (b,1), (a,0).
        for node, label in zip(range(4), "ABCD"):
            graph.add_node(node, labels=label)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        view = ViewDefinition("chain", pattern)
        return graph, view, IncrementalView(view, graph, budget=budget)

    @pytest.mark.parametrize("budget,expect_incremental", [
        (2, False),   # area 3 > budget 2: fall back to recompute
        (3, True),    # area 3 == budget 3: incremental revival
        (None, True),
    ])
    def test_fallback_boundary(self, budget, expect_incremental):
        graph, view, tracker = self._setup(budget)
        graph.add_edge(2, 3)
        tracker.insert_edge(2, 3)
        fresh = materialize(view, graph)
        assert tracker.extension().edge_matches == fresh.edge_matches
        if expect_incremental:
            assert tracker.stats.incremental_inserts == 1
            assert tracker.stats.recomputes == 0
            assert tracker.stats.revived_pairs == 3
            assert tracker.stats.affected_area == 3
        else:
            assert tracker.stats.incremental_inserts == 0
            assert tracker.stats.recomputes == 1

    def test_deletion_after_incremental_insert_stays_consistent(self):
        # The revival path must leave witness counters exact, or a
        # later deletion cascade would prune the wrong pairs.
        graph, view, tracker = self._setup(None)
        graph.add_edge(2, 3)
        tracker.insert_edge(2, 3)
        for edge in [(12, 13), (2, 3), (0, 1)]:
            graph.remove_edge(*edge)
            tracker.delete_edge(*edge)
            fresh = materialize(view, graph)
            assert tracker.extension().edge_matches == fresh.edge_matches, edge


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [None, 2])
    def test_viewset_stream_matches_rematerialization(self, seed, budget):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng, 24, 60)
        definitions = _definitions()
        tracked = IncrementalViewSet(definitions, graph, budget=budget)
        mirror = graph.copy()
        ops = _stream(rng, graph, 50, fresh_nodes=4)
        # Interleave singles and batches.
        index = 0
        while index < len(ops):
            take = 1 if rng.random() < 0.4 else rng.randrange(2, 6)
            chunk = ops[index : index + take]
            index += take
            if len(chunk) == 1:
                op, source, target = chunk[0]
                if op == "insert":
                    tracked.insert_edge(source, target)
                else:
                    tracked.delete_edge(source, target)
            else:
                tracked.apply_delta(Delta(chunk))
            for op, source, target in chunk:
                if op == "insert":
                    mirror.add_edge(source, target)
                else:
                    mirror.remove_edge(source, target)
            for definition in definitions:
                fresh = materialize(definition, mirror)
                assert (
                    tracked.extension(definition.name).edge_matches
                    == fresh.edge_matches
                ), (seed, budget, definition.name)

    @pytest.mark.parametrize("seed", range(3))
    def test_compact_refresh_stream(self, seed):
        rng = random.Random(seed + 100)
        graph = random_labeled_graph(rng, 30, 80)
        previous = graph.freeze()
        for round_index in range(6):
            for op, source, target in _stream(rng, graph, 8, fresh_nodes=3):
                if op == "insert":
                    graph.add_edge(source, target)
                else:
                    graph.remove_edge(source, target)
            refreshed = graph.freeze()
            fresh = CompactGraph(graph, graph.version)
            assert refreshed.extends_token == previous.snapshot_token
            assert list(refreshed.nodes()) == list(fresh.nodes())
            assert sorted(refreshed.edges(), key=repr) == sorted(
                fresh.edges(), key=repr
            )
            for node in graph.nodes():
                assert refreshed.successors(node) == fresh.successors(node)
                assert refreshed.predecessors(node) == fresh.predecessors(node)
                assert refreshed.labels(node) == fresh.labels(node)
                assert refreshed.attrs(node) == fresh.attrs(node)
            assert refreshed.label_index_stats() == fresh.label_index_stats()
            # Pre-existing ids are stable across the refresh chain.
            for node in previous.nodes():
                assert refreshed.id_of(node) == previous.id_of(node)
            previous = refreshed

    def test_refresh_reuses_untouched_rows(self):
        graph = random_labeled_graph(random.Random(7), 40, 100)
        first = graph.freeze()
        source = next(iter(graph.nodes()))
        target = next(
            node for node in graph.nodes()
            if node != source and not graph.has_edge(source, node)
        )
        graph.add_edge(source, target)
        second = graph.freeze()
        touched = {graph.freeze().id_of(source)}
        reused = sum(
            1
            for i in range(len(first))
            if second.succ_rows[i] is first.succ_rows[i]
        )
        assert reused >= len(first) - len(touched)

    def test_label_mutation_breaks_refresh(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        first = graph.freeze()
        graph.add_node(1, labels="Z")  # existing node gains a label
        second = graph.freeze()
        assert second.extends_token is None  # full rebuild
        assert second.labels(1) == frozenset({"A", "Z"})

    def test_apply_delta_skips_inapplicable_ops(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        applied = graph.apply_delta(
            Delta().insert(1, 2).delete(2, 1).insert(2, 1).delete(1, 2)
        )
        assert applied == [("insert", 2, 1), ("delete", 1, 2)]
        assert sorted(graph.edges()) == [(2, 1)]


class TestShardedRefresh:
    @pytest.mark.parametrize("strategy", ["hash", "label", "bfs"])
    def test_refreshed_equals_fresh_build(self, strategy):
        rng = random.Random(11)
        graph = random_labeled_graph(rng, 36, 100)
        sharded = ShardedGraph(graph, num_shards=3, strategy=strategy)
        base = graph.version
        for op, source, target in _stream(rng, graph, 24, fresh_nodes=4):
            if op == "insert":
                graph.add_edge(source, target)
            else:
                graph.remove_edge(source, target)
        ops = graph.edge_changes_since(base)
        assert ops is not None
        refreshed = sharded.refreshed(graph, ops)
        assert refreshed.extends_token == sharded.snapshot_token
        assert set(refreshed.nodes()) == set(graph.nodes())
        for node in graph.nodes():
            assert refreshed.successors(node) == frozenset(graph.successors(node))
            assert refreshed.predecessors(node) == frozenset(
                graph.predecessors(node)
            )
        for node in sharded.node_table:
            assert refreshed.id_of(node) == sharded.id_of(node)
        for pattern in (
            build_pattern({"x": "A", "y": "B"}, [("x", "y")]),
            build_pattern(
                {"x": "B", "y": "C", "z": "A"}, [("x", "y"), ("y", "z")]
            ),
        ):
            assert (
                sharded_match(pattern, refreshed).edge_matches
                == match(pattern, graph).edge_matches
            )

    def test_only_owning_shards_rebuilt(self):
        rng = random.Random(13)
        graph = random_labeled_graph(rng, 40, 90)
        sharded = ShardedGraph(graph, num_shards=4)
        # One edge between existing nodes: only the source's home shard
        # (plus, for a cross edge, nobody else) is rebuilt.
        source = next(iter(graph.nodes()))
        target = next(
            node for node in graph.nodes()
            if node != source and not graph.has_edge(source, node)
        )
        base = graph.version
        graph.add_edge(source, target)
        refreshed = sharded.refreshed(graph, graph.edge_changes_since(base))
        owner = refreshed.partition.shard_of(source)
        for index in range(4):
            if index == owner:
                assert refreshed.shard(index) is not sharded.shard(index)
            else:
                assert refreshed.shard(index) is sharded.shard(index)

    def test_refreshed_snapshot_survives_process_pool(self):
        # Refreshed sharded graphs ship to pool workers exactly like
        # freshly built ones (plain picklable state).
        import pickle

        rng = random.Random(19)
        graph = random_labeled_graph(rng, 30, 70)
        sharded = ShardedGraph(graph, num_shards=2)
        base = graph.version
        for op, source, target in _stream(rng, graph, 10, fresh_nodes=2):
            if op == "insert":
                graph.add_edge(source, target)
            else:
                graph.remove_edge(source, target)
        refreshed = sharded.refreshed(graph, graph.edge_changes_since(base))
        clone = pickle.loads(pickle.dumps(refreshed))
        assert clone.snapshot_token == refreshed.snapshot_token
        pattern = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        assert (
            sharded_match(pattern, clone, executor="process", workers=2)
            .edge_matches
            == match(pattern, graph).edge_matches
        )

    def test_new_nodes_go_to_last_shard_preserving_ids(self):
        rng = random.Random(17)
        graph = random_labeled_graph(rng, 30, 70)
        sharded = ShardedGraph(graph, num_shards=3)
        base = graph.version
        anchor = next(iter(graph.nodes()))
        graph.add_edge("brand-new", anchor)
        refreshed = sharded.refreshed(graph, graph.edge_changes_since(base))
        assert refreshed.partition.shard_of("brand-new") == 2
        assert refreshed.id_of("brand-new") == len(sharded.node_table)
        for node in sharded.node_table:
            assert refreshed.id_of(node) == sharded.id_of(node)
        assert refreshed.has_edge("brand-new", anchor)


class TestViewSetDeltaPipeline:
    def test_per_view_stamps_move_only_for_changed_views(self):
        graph = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"}, [(1, 2), (2, 3), (1, 4)]
        )
        views = ViewSet(_definitions())
        views.track(graph)
        stamps = {name: views.view_version(name) for name in views.names()}
        report = views.apply_delta(Delta().insert(4, 3))  # B->C: BC and ABC
        assert set(report.changed_views) == {"BC", "ABC"}
        assert views.view_version("AB") == stamps["AB"]
        assert views.view_version("BC") != stamps["BC"]
        assert views.view_version("ABC") != stamps["ABC"]
        mirror = graph.copy()
        mirror.add_edge(4, 3)
        for definition in views:
            assert (
                views.extension(definition.name).edge_matches
                == materialize(definition, mirror).edge_matches
            )

    def test_version_vector_and_uniqueness(self):
        views = ViewSet(_definitions())
        vector = views.version_vector(["AB", "BC"])
        assert len(vector) == 2
        assert len(set(views.version_vector())) == 3  # stamps are unique
        with pytest.raises(KeyError):
            views.view_version("missing")

    def test_rebind_extension_keeps_versions(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(_definitions()[:1])
        frozen = graph.freeze()
        views.materialize(frozen)
        stamp = views.view_version("AB")
        version = views.version
        graph.add_edge(2, 1)
        refreshed = graph.freeze()
        rebound = bind_extension(views.extension("AB"), refreshed)
        views.rebind_extension(rebound)
        assert views.view_version("AB") == stamp
        assert views.version == version
        assert views.extension("AB").compact.token == refreshed.snapshot_token

    def test_track_twice_rejected_and_requires_tracking(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(_definitions()[:1])
        with pytest.raises(ValueError):
            views.apply_delta(Delta().insert(1, 2))
        views.track(graph)
        with pytest.raises(ValueError):
            views.track(graph)


class TestEngineRetention:
    @pytest.fixture
    def setup(self):
        graph = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B", 5: "A"},
            [(1, 2), (2, 3), (1, 4), (5, 2)],
        )
        definitions = _definitions()[:2]  # AB, BC
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.attach_maintenance(tracker)
        q_ab = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        q_bc = build_pattern({"x": "B", "y": "C"}, [("x", "y")])
        return graph, tracker, engine, q_ab, q_bc

    def test_update_retains_answers_over_unchanged_views(self, setup):
        _, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        tracker.insert_edge(4, 3)  # B->C: touches BC only
        retained = engine.answer(q_ab)
        assert retained.stats.cache_hit
        refreshed = engine.answer(q_bc)
        assert not refreshed.stats.cache_hit
        assert refreshed.edge_matches[("x", "y")] == {(2, 3), (4, 3)}
        hits = engine.cache_stats()["answers"]["hits"]
        assert hits >= 1

    def test_irrelevant_update_retains_everything(self, setup):
        _, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        tracker.insert_edge(3, 3 + 100)  # C -> unlabeled: irrelevant
        assert engine.answer(q_ab).stats.cache_hit
        assert engine.answer(q_bc).stats.cache_hit

    def test_snapshot_and_extensions_stay_token_coherent(self, setup):
        _, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        before = engine.snapshot().snapshot_token
        assert engine.views.snapshot_token == before
        tracker.insert_edge(4, 3)
        engine.answer(q_ab)  # triggers the batch refresh
        snapshot = engine.snapshot()
        assert snapshot.extends_token == before
        # Changed views re-bound, unchanged views re-stamped: every
        # extension carries the refreshed token, so MatchJoin's
        # id-space fast path re-engages across the catalog.
        assert engine.views.snapshot_token == snapshot.snapshot_token

    def test_direct_answers_keyed_on_graph_version(self, setup):
        graph, tracker, engine, _, _ = setup
        uncovered = build_pattern({"x": "C", "y": "B"}, [("x", "y")])
        first = engine.answer(uncovered)
        assert first.stats.strategy == "direct"
        assert engine.answer(uncovered).stats.cache_hit
        tracker.insert_edge(3, 4)  # C->B changes the direct answer
        second = engine.answer(uncovered)
        assert not second.stats.cache_hit
        assert second.edge_matches[("x", "y")] == {(3, 4)}

    def test_batched_delta_single_refresh(self, setup):
        graph, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        report = tracker.apply_delta(
            Delta().insert(4, 3).delete(4, 3).insert(4, 3)
        )
        assert report.applied == 3
        assert set(report.changed_views) == {"BC"}
        assert engine.answer(q_ab).stats.cache_hit
        assert engine.answer(q_bc).edge_matches[("x", "y")] == {(2, 3), (4, 3)}

    def test_sharded_engine_refreshes_owning_shards_only(self):
        rng = random.Random(23)
        graph = random_labeled_graph(rng, 30, 70)
        definitions = _definitions()[:2]
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(
            ViewSet(definitions), graph=graph, shards=3
        )
        engine.attach_maintenance(tracker)
        q_ab = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        engine.answer(q_ab)
        first = engine.snapshot()
        source = next(
            node for node in tracker.graph.nodes()
            if not tracker.graph.has_edge(node, node)
        )
        target = next(
            node for node in tracker.graph.nodes()
            if node != source and not tracker.graph.has_edge(source, node)
        )
        tracker.insert_edge(source, target)
        result = engine.answer(q_ab)
        second = engine.snapshot()
        assert second.extends_token == first.snapshot_token
        owner = second.partition.shard_of(source)
        for index in range(second.num_shards):
            if index != owner:
                assert second.shard(index) is first.shard(index)
        mirror = tracker.graph
        assert result.edge_matches == match(q_ab, mirror).edge_matches


class TestMaintainCli:
    def test_maintain_replays_and_verifies(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_graph
        from repro.views.io import write_viewset

        graph = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B", 5: "A"},
            [(1, 2), (2, 3), (1, 4)],
        )
        views = ViewSet(_definitions())
        graph_path = tmp_path / "graph.json"
        views_path = tmp_path / "views.json"
        updates_path = tmp_path / "updates.txt"
        write_graph(graph, graph_path)
        write_viewset(views, views_path)
        updates_path.write_text("+ 4 3\n- 2 3\n+ 5 4\n- 9 9\n")
        code = main(
            [
                "maintain",
                "--graph", str(graph_path),
                "--views", str(views_path),
                "--updates", str(updates_path),
                "--batch", "2",
                "--verify",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "replayed 3 updates (1 skipped)" in captured.out
        assert "verified" in captured.out

    def test_maintain_json_payload(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.graph.io import write_graph
        from repro.views.io import write_viewset

        graph = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"}, [(1, 2), (2, 3)]
        )
        views = ViewSet(_definitions())
        graph_path = tmp_path / "graph.json"
        views_path = tmp_path / "views.json"
        updates_path = tmp_path / "updates.txt"
        write_graph(graph, graph_path)
        write_viewset(views, views_path)
        updates_path.write_text("+ 4 3\n+ 1 4\n")
        code = main(
            [
                "maintain",
                "--graph", str(graph_path),
                "--views", str(views_path),
                "--updates", str(updates_path),
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["updates"]["applied"] == 2
        assert payload["snapshot"]["refreshes"] >= 1
        assert set(payload["views"]) == {"AB", "BC", "ABC"}
        for counters in payload["views"].values():
            assert "retained_batches" in counters


class TestDeletionPaths:
    """Deletions are *incremental*, not recompute-on-delete: the
    witness-counter cascade (``IncrementalView._after_delete``) prunes
    exactly the matches that lost their last witness.  These tests pin
    that down -- delete-heavy streams must never trigger a recompute,
    must leave every backend's view of the extension equal to a
    from-scratch rematerialization, and delete-then-reinsert round
    trips must restore the original extension exactly."""

    def _delete_heavy_stream(self, rng, live, rounds, delete_bias=0.8):
        """Ops valid against the evolving tracker graph: mostly
        deletions of present edges, a few insertions to keep churn."""
        ops = []
        present = set(live.edges())
        for _ in range(rounds):
            if present and rng.random() < delete_bias:
                edge = rng.choice(sorted(present, key=repr))
                ops.append(("delete", *edge))
                present.discard(edge)
            else:
                source = rng.randrange(len(live))
                target = rng.randrange(len(live))
                if source == target or (source, target) in present:
                    continue
                ops.append(("insert", source, target))
                present.add((source, target))
        return ops

    @pytest.mark.parametrize("seed", range(3))
    def test_delete_heavy_stream_equal_on_every_backend(self, seed):
        """After every delete-heavy batch, the maintained extension
        equals rematerialization on the dict graph, on a frozen
        ``CompactGraph`` and on a ``ShardedGraph`` composite."""
        rng = random.Random(seed + 500)
        graph = random_labeled_graph(rng, 24, 70)
        definitions = _definitions()
        tracked = IncrementalViewSet(definitions, graph)
        mirror = graph.copy()
        ops = self._delete_heavy_stream(rng, tracked.graph, 40)
        index = 0
        while index < len(ops):
            take = rng.randrange(1, 6)
            chunk = ops[index : index + take]
            index += take
            report = tracked.apply_delta(Delta(chunk))
            assert report.applied == len(chunk)
            for op, source, target in chunk:
                if op == "insert":
                    mirror.add_edge(source, target)
                else:
                    mirror.remove_edge(source, target)
            compact = CompactGraph(mirror, mirror.version)
            sharded = ShardedGraph(mirror, num_shards=2)
            for definition in definitions:
                maintained = tracked.extension(definition.name).edge_matches
                for backend in (mirror, compact, sharded):
                    fresh = materialize(definition, backend)
                    assert maintained == fresh.edge_matches, (
                        seed,
                        definition.name,
                        type(backend).__name__,
                    )

    @pytest.mark.parametrize("seed", range(3))
    def test_pure_deletion_stream_never_recomputes(self, seed):
        """A pure-deletion stream exercises only the counter cascade:
        ``deletions`` climbs, ``recomputes`` stays zero."""
        rng = random.Random(seed + 900)
        graph = random_labeled_graph(rng, 20, 60)
        definitions = _definitions()
        tracked = IncrementalViewSet(definitions, graph)
        mirror = graph.copy()
        edges = sorted(tracked.graph.edges(), key=repr)
        rng.shuffle(edges)
        doomed = edges[: len(edges) // 2]
        index = 0
        while index < len(doomed):
            take = rng.randrange(1, 5)
            chunk = doomed[index : index + take]
            index += take
            tracked.apply_delta(
                Delta(("delete", source, target) for source, target in chunk)
            )
            for source, target in chunk:
                mirror.remove_edge(source, target)
            for definition in definitions:
                fresh = materialize(definition, mirror)
                assert (
                    tracked.extension(definition.name).edge_matches
                    == fresh.edge_matches
                )
        totals = {name: stats.snapshot() for name, stats in tracked.stats().items()}
        assert sum(counters["deletions"] for counters in totals.values()) == len(
            doomed
        ) * len(definitions)
        for name, counters in totals.items():
            assert counters["recomputes"] == 0, (name, counters)
            assert counters["insertions"] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_delete_then_reinsert_round_trip(self, seed):
        """Deleting a batch of edges and reinserting the same batch
        restores every extension exactly (same match sets -- the
        cascade and the revival path are true inverses here)."""
        rng = random.Random(seed + 1300)
        graph = random_labeled_graph(rng, 22, 64)
        definitions = _definitions()
        tracked = IncrementalViewSet(definitions, graph)
        original = {
            definition.name: dict(
                tracked.extension(definition.name).edge_matches
            )
            for definition in definitions
        }
        edges = sorted(tracked.graph.edges(), key=repr)
        rng.shuffle(edges)
        batch = edges[: max(4, len(edges) // 3)]
        tracked.apply_delta(
            Delta(("delete", source, target) for source, target in batch)
        )
        # Reinsert in a different order: set semantics, not a transcript.
        rng.shuffle(batch)
        report = tracked.apply_delta(
            Delta(("insert", source, target) for source, target in batch)
        )
        assert report.applied == len(batch)
        for definition in definitions:
            assert (
                tracked.extension(definition.name).edge_matches
                == original[definition.name]
            ), (seed, definition.name)

    def test_deleting_every_edge_then_rebuilding(self):
        """Edge case: drain the graph empty (every view goes empty via
        the cascade), then reinsert everything -- extensions come back
        equal to the original materialization."""
        rng = random.Random(4242)
        graph = random_labeled_graph(rng, 14, 40)
        definitions = _definitions()
        tracked = IncrementalViewSet(definitions, graph)
        original = {
            definition.name: dict(
                tracked.extension(definition.name).edge_matches
            )
            for definition in definitions
        }
        edges = sorted(tracked.graph.edges(), key=repr)
        tracked.apply_delta(
            Delta(("delete", source, target) for source, target in edges)
        )
        for definition in definitions:
            assert not tracked.extension(definition.name).edge_matches or all(
                not pairs
                for pairs in tracked.extension(definition.name)
                .edge_matches.values()
            )
        tracked.apply_delta(
            Delta(("insert", source, target) for source, target in edges)
        )
        for definition in definitions:
            assert (
                tracked.extension(definition.name).edge_matches
                == original[definition.name]
            ), definition.name
