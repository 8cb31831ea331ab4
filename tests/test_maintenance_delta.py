"""The delta-driven maintenance pipeline, end to end.

Property-based equivalence: random interleaved insert/delete/batch
streams must leave every layer -- view trackers, the frozen
``CompactGraph`` snapshot and the ``QueryEngine`` caches -- in exactly
the state a from-scratch rebuild would produce, while touching only the
affected area:

* incremental view state == from-scratch rematerialization (on a dict
  graph the same ops moved, the tracker never changes the graph it is
  given) after every update, across dict, compact and (ingested)
  sharded backends;
* patched snapshots (``CompactGraph.applied``) == freshly built
  snapshots, with unchanged adjacency rows reused by reference and
  pre-existing ids stable;
* engine answer caches retain entries for plans that read only
  unchanged views, and evict exactly the rest.
"""

import random

import pytest

from helpers import (
    apply_ops, build_graph, build_pattern, ingested, random_labeled_graph, str_keyed,
)
from repro.engine import QueryEngine
from repro.graph import Pattern
from repro.graph.compact import CompactGraph
from repro.graph.conditions import TrueCondition
from repro.graph.digraph import DataGraph
from repro.simulation import match
from repro.views import Delta, ViewDefinition, ViewSet, materialize
from repro.views.maintenance import IncrementalViewSet


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
    keys may exceed the current node set (``add_edge`` auto-creates).
    No self-loops."""
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


class TestBadOps:
    """An op that cannot be applied is refused when the delta is built,
    so a batch never stops half applied and the next one applies."""

    def test_unhashable_endpoints_are_refused_up_front(self):
        with pytest.raises(ValueError, match="names no node key"):
            Delta([("insert", 1, 3), ("insert", {"x": 1}, 3)])
        with pytest.raises(ValueError, match="names no node key"):
            Delta().insert(1, [3])
        with pytest.raises(ValueError, match="names no node key"):
            Delta().delete({"x": 1}, 3)

    def test_engine_applies_the_next_delta_after_a_refused_one(self):
        graph = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2)])
        tracker = IncrementalViewSet(_definitions(), graph)
        engine = QueryEngine(ViewSet(_definitions()), graph=graph)
        engine.attach_maintenance(tracker)
        with pytest.raises(ValueError):
            engine.apply_delta(
                Delta([("insert", 1, 3), ("insert", {"x": 1}, 3)])
            )
        assert not graph.has_edge(1, 3)
        report = engine.apply_delta(Delta([("insert", 1, 3)]))
        assert report.applied == 1
        assert tracker.extension("AB").pairs_of(("a", "b")) == {(1, 2), (1, 3)}

    def test_parse_decodes_list_tokens_as_tuple_keys(self):
        delta = Delta.parse(["+ [1,2] 3", '- ["a",[4,5]] "b"'])
        assert delta.ops == (
            ("insert", (1, 2), 3),
            ("delete", ("a", (4, 5)), "b"),
        )

    def test_parse_refuses_object_tokens_naming_the_line(self):
        with pytest.raises(ValueError, match=r"line 3"):
            Delta.parse(["+ 1 2", "# note", '+ {"a":1} 2'])

    def test_maintain_cli_exits_1_on_an_object_token(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_graph
        from repro.views.io import write_viewset

        graph_path = tmp_path / "graph.json"
        views_path = tmp_path / "views.json"
        updates_path = tmp_path / "updates.txt"
        write_graph(build_graph({1: "A", 2: "B"}, [(1, 2)]), graph_path)
        write_viewset(ViewSet(_definitions()), views_path)
        updates_path.write_text('+ 1 2\n+ {"a":1} 2\n')
        code = main(
            [
                "maintain",
                "--graph", str(graph_path),
                "--views", str(views_path),
                "--updates", str(updates_path),
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestConstructorSatellites:
    def test_delete_edge_noops_on_missing_edge(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        tracked = IncrementalViewSet(_definitions(), g)
        report = tracked.apply_delta(Delta().delete(2, 1).delete(9, 9))
        assert (report.applied, report.skipped) == (0, 2)
        assert tracked.extension("AB").num_pairs == 1
        assert tracked.seq == 0  # no state change, nothing to sync

    def test_extension_cached_behind_dirty_flag(self):
        g = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
        tracked = IncrementalViewSet(_definitions()[:1], g)
        first = tracked.extension("AB")
        assert tracked.extension("AB") is first  # no rebuild between reads
        stats = tracked.stats()["AB"]
        builds_before = stats.extension_builds
        tracked.apply_delta(Delta().insert(3, 1))  # irrelevant for an A->B view
        kept = tracked.extension("AB")  # provably unchanged: rows kept, re-stamped
        assert kept.edge_matches is first.edge_matches
        assert kept.compact.token == tracked.graph.snapshot_token
        assert stats.extension_builds == builds_before
        tracked.apply_delta(Delta().delete(1, 2))  # changes the match set
        second = tracked.extension("AB")
        assert second is not first
        assert stats.extension_builds == builds_before + 1


def test_a_batch_too_large_for_a_patch_keeps_every_view():
    # Edges between 40 sources and 40 targets touch more than the 64
    # rows a patch may hold here, so the batch's snapshot is encoded
    # afresh -- with every id kept, so each view is repaired, never
    # rebooted.
    rng = random.Random(5)
    graph = random_labeled_graph(rng, 80, 160)
    tracked = IncrementalViewSet(_definitions(), graph)
    old = tracked.graph
    ops = [("insert", v, v + 40) for v in range(40) if not graph.has_edge(v, v + 40)]
    report = tracked.apply_delta(Delta(ops))
    apply_ops(graph, ops)
    assert report.applied == len(ops) > 32
    snapshot = tracked.graph
    assert snapshot.flat_store is not old.flat_store and snapshot._patch is None
    assert snapshot.extends_token == old.snapshot_token
    for definition in _definitions():
        stats = report.per_view[definition.name]
        assert stats["recomputes"] == 0
        extension = tracked.extension(definition.name)
        assert extension.compact.token == snapshot.snapshot_token
        assert extension.edge_matches == materialize(definition, graph).edge_matches
    deletes = [("delete",) + op[1:] for op in ops[:3]]
    tracked.apply_delta(Delta(deletes))
    apply_ops(graph, deletes)
    for definition in _definitions():
        assert (
            tracked.extension(definition.name).edge_matches
            == materialize(definition, graph).edge_matches
        )


def test_a_fresh_node_joins_the_wildcard_sink_it_matches():
    # Edges to fresh keys append unlabelled nodes.  A view node with no
    # condition matches them even when no inserted edge is compatible
    # with a view edge, and a later batch relies on that: a1 -> f0 is
    # a match only because f0 already matches y.
    graph = build_graph({"a1": "A", "a2": "A", "b1": "B"}, [("a2", "b1")])
    view = Pattern()
    view.add_node("x", "A")
    view.add_node("y", TrueCondition())
    view.add_edge("x", "y")
    definition = ViewDefinition("AX", view)
    tracked = IncrementalViewSet([definition], graph)
    for delta in (Delta().insert("q", "f0"), Delta().insert("a1", "f0")):
        tracked.apply_delta(delta)
        apply_ops(graph, delta)
        assert (
            tracked.extension("AX").edge_matches
            == materialize(definition, graph).edge_matches
        )
    assert tracked.extension("AX").edge_matches[("x", "y")] == {("a1", "f0"), ("a2", "b1")}


class TestInsertionRevival:
    def _setup(self):
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
        return graph, view, IncrementalViewSet([view], graph)

    def test_insertion_revives_exactly_the_affected_pairs(self):
        graph, view, tracker = self._setup()
        tracker.apply_delta(Delta().insert(2, 3))
        graph.add_edge(2, 3)
        fresh = materialize(view, graph)
        assert tracker.extension("chain").edge_matches == fresh.edge_matches
        stats = tracker.stats()["chain"]
        assert stats.incremental_inserts == 1
        assert stats.recomputes == 0
        assert stats.revived_pairs == 3
        assert stats.affected_area == 3

    def test_deletion_after_incremental_insert_stays_consistent(self):
        # The revival path must leave witness counters exact, or a
        # later deletion cascade would prune the wrong pairs.
        graph, view, tracker = self._setup()
        tracker.apply_delta(Delta().insert(2, 3))
        graph.add_edge(2, 3)
        for edge in [(12, 13), (2, 3), (0, 1)]:
            tracker.apply_delta(Delta().delete(*edge))
            graph.remove_edge(*edge)
            fresh = materialize(view, graph)
            assert tracker.extension("chain").edge_matches == fresh.edge_matches, edge


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_compact_refresh_stream(self, seed):
        rng = random.Random(seed + 100)
        graph = random_labeled_graph(rng, 30, 80)
        previous = graph.freeze()
        for round_index in range(6):
            ops = _stream(rng, graph, 8, fresh_nodes=3)
            apply_ops(graph, ops)
            refreshed = previous.applied(ops)
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
            # Pre-existing ids are stable across the chain of batches.
            for node in previous.nodes():
                assert refreshed.id_of(node) == previous.id_of(node)
            previous = refreshed

    def test_refresh_reuses_untouched_rows(self):
        graph = random_labeled_graph(random.Random(7), 40, 100)
        first = graph.freeze()
        for i in range(len(first)):  # decoded before the batch: shared
            first.succ_rows[i]
        source = next(iter(graph.nodes()))
        target = next(
            node for node in graph.nodes()
            if node != source and not graph.has_edge(source, node)
        )
        second = first.applied([("insert", source, target)])
        touched = {second.id_of(source)}
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


class TestViewSetDeltaPipeline:
    def test_per_view_stamps_move_only_for_changed_views(self):
        graph = build_graph(
            {1: "A", 2: "B", 3: "C", 4: "B"}, [(1, 2), (2, 3), (1, 4)]
        )
        views = ViewSet(_definitions())
        engine = QueryEngine(views, graph=graph)
        engine.attach_maintenance(IncrementalViewSet(_definitions(), graph))
        mirror = graph.copy()
        stamps = {name: views.view_version(name) for name in views.names()}
        report = engine.apply_delta(Delta().insert(4, 3))  # B->C: BC and ABC
        assert set(report.changed_views) == {"BC", "ABC"}
        assert views.view_version("AB") == stamps["AB"]
        assert views.view_version("BC") != stamps["BC"]
        assert views.view_version("ABC") != stamps["ABC"]
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
        refreshed = frozen.applied([("insert", 2, 1)])
        rebound = views.extension("AB").rebound(refreshed)
        views.rebind_extension(rebound)
        assert views.view_version("AB") == stamp
        assert views.version == version
        assert views.extension("AB").compact.token == refreshed.snapshot_token

    def test_track_twice_rejected_and_requires_tracking(self):
        graph = build_graph({1: "A", 2: "B"}, [(1, 2)])
        engine = QueryEngine(ViewSet(_definitions()[:1]), graph=graph)
        with pytest.raises(ValueError):
            engine.apply_delta(Delta().insert(1, 2))
        tracker = IncrementalViewSet(_definitions()[:1], graph)
        engine.attach_maintenance(tracker)
        engine.attach_maintenance(tracker)  # the same tracker: a no-op
        with pytest.raises(ValueError, match="already attached"):
            engine.attach_maintenance(IncrementalViewSet([], graph))


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
        engine.apply_delta(Delta().insert(4, 3))  # B->C: touches BC only
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
        engine.apply_delta(Delta().insert(3, 3 + 100))  # C -> unlabeled: irrelevant
        assert engine.answer(q_ab).stats.cache_hit
        assert engine.answer(q_bc).stats.cache_hit

    def test_snapshot_and_extensions_stay_token_coherent(self, setup):
        _, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        before = engine.snapshot().snapshot_token
        assert engine.views.snapshot_token == before
        tracker.apply_delta(Delta().insert(4, 3))  # straight to the tracker
        engine.answer(q_ab)  # the read consumes it: snapshot refresh
        snapshot = engine.snapshot()
        assert snapshot.extends_token == before
        # Changed views re-bound, unchanged views re-stamped: every
        # extension carries the refreshed token, so MatchJoin's
        # id-space fast path re-engages across the catalog.
        assert engine.views.snapshot_token == snapshot.snapshot_token

    def test_a_read_after_several_tracker_batches_sees_all_of_them(self, setup):
        # BC changes only in the first batch and AB in none: each view's
        # catalog copy is several refreshes behind when the read
        # consumes, yet every extension lands on the latest snapshot.
        graph, tracker, engine, q_ab, q_bc = setup
        engine.answer(q_ab)
        engine.answer(q_bc)
        for delta in (Delta().insert(4, 3), Delta().insert(3, 103), Delta().insert(3, 104)):
            tracker.apply_delta(delta)
            apply_ops(graph, delta)
        for query in (q_ab, q_bc):
            assert engine.answer(query).edge_matches == match(query, graph).edge_matches
        assert engine.views.snapshot_token == engine.snapshot().snapshot_token

    def test_a_view_the_tracker_does_not_maintain_goes_stale(self):
        graph = build_graph({"a1": "A", "b1": "B", "c1": "C"}, [("a1", "b1"), ("b1", "c1")])
        definitions = _definitions()[:2]  # AB, BC
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.materialize_views(["AB", "BC"])
        engine.attach_maintenance(IncrementalViewSet(definitions[:1], graph))
        report = engine.apply_delta(Delta().delete("b1", "c1"))
        graph.remove_edge("b1", "c1")
        assert report.stale_bounded == ("BC",)
        assert engine.views.is_stale("BC")
        bc = definitions[1].pattern
        assert engine.answer(bc).edge_matches == match(bc, graph).edge_matches

    def test_direct_answers_keyed_on_graph_version(self, setup):
        graph, tracker, engine, _, _ = setup
        uncovered = build_pattern({"x": "C", "y": "B"}, [("x", "y")])
        first = engine.answer(uncovered)
        assert first.stats.strategy == "direct"
        assert engine.answer(uncovered).stats.cache_hit
        engine.apply_delta(Delta().insert(3, 4))  # C->B changes the direct answer
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

    def test_maintain_verify_checks_against_an_independent_graph(
        self, tmp_path, capsys, monkeypatch
    ):
        # A snapshot that loses an inserted edge (its rows) misleads the
        # tracker and every read of the engine's graph alike: only the
        # dict graph --verify moves by the same ops can tell.
        from repro.cli import main
        from repro.graph.io import write_graph
        from repro.views.io import write_viewset

        applied = CompactGraph.applied

        def drops_an_insert(self, ops):
            inserts = [op for op in ops if op[0] == "insert"]
            return applied(self, [op for op in ops if op is not inserts[0]] if inserts else ops)

        monkeypatch.setattr(CompactGraph, "applied", drops_an_insert)
        graph = build_graph({1: "A", 2: "B", 3: "C", 4: "B"}, [(1, 2), (2, 3)])
        write_graph(graph, tmp_path / "graph.json")
        write_viewset(ViewSet(_definitions()), tmp_path / "views.json")
        (tmp_path / "updates.txt").write_text("+ 4 3\n")
        code = main([
            "maintain", "--graph", str(tmp_path / "graph.json"),
            "--views", str(tmp_path / "views.json"),
            "--updates", str(tmp_path / "updates.txt"), "--verify",
        ])
        assert code == 1
        assert "diverged from rematerialization" in capsys.readouterr().err

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
    witness-counter cascade (``simulation.repair.repair``) prunes
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
    def test_delete_heavy_stream_equal_on_every_backend(self, seed, tmp_path):
        """After every delete-heavy batch, the maintained extension
        equals rematerialization on the dict graph, on a frozen
        ``CompactGraph`` and on an ingested ``ShardedGraph``."""
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
            # Ingest takes str node keys: the sharded answer is compared
            # through the same renaming.
            sharded, _ = ingested(*str_keyed(mirror), 2, tmp_path)
            for definition in definitions:
                maintained = tracked.extension(definition.name).edge_matches
                renamed = {
                    edge: {(str(v), str(w)) for v, w in pairs}
                    for edge, pairs in maintained.items()
                }
                for backend, want in (
                    (mirror, maintained), (compact, maintained), (sharded, renamed)
                ):
                    fresh = materialize(definition, backend)
                    assert want == fresh.edge_matches, (
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
