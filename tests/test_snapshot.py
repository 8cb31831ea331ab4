"""Persistent snapshot directories and streaming out-of-core ingest.

Round trips through :mod:`repro.graph.snapshot` and
:mod:`repro.graph.ingest`: save -> load -> query equivalence against
the in-memory backends (dict graph == compact == reloaded mmap),
manifest/segment corruption rejection, patch-overlay and provenance
preservation, sharded round trips, the shard-at-a-time ingest builder,
crash safety (fsync coverage, a failed overwrite swap, torn files),
``QueryEngine(snapshot_path=...)`` boots, epoch persistence in the
serving layer, and the CLI surface over all of it.
"""

import asyncio
import json
import os
import random
import shutil
from pathlib import Path

import pytest

from helpers import ingested, ingested_dir, random_labeled_graph, shm_segments, str_keyed
from repro.cli import main as cli_main
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import CompactGraph, DataGraph
from repro.graph.flatbuf import _FILE_HEADER_SIZE, SegmentFormatError
from repro.graph.ingest import ingest_snapshot
from repro.graph.snapshot import (
    MANIFEST_NAME,
    SnapshotError,
    SnapshotStore,
)
from repro.shard import StreamingHashPartitioner
from repro.shard.partitioner import _stable_hash
from repro.shard.psim import sharded_match
from repro.simulation import match
from repro.views.storage import ViewSet

LABELS = tuple(f"l{i}" for i in range(4))


def _workload(seed=17, nodes=80, edges=200):
    graph = random_graph(nodes, edges, labels=LABELS, seed=seed)
    views = ViewSet(generate_views(LABELS, 5, seed=seed))
    query = query_from_views(views, 4, 6, seed=seed)
    return graph, views, query


def _random_edges(count, num_nodes, seed=23):
    rng = random.Random(seed)
    return [
        (f"n{rng.randrange(num_nodes)}", f"n{rng.randrange(num_nodes)}")
        for _ in range(count)
    ]


def _labeler(node):
    return (f"l{int(node[1:]) % len(LABELS)}",)


# ----------------------------------------------------------------------
# Compact round trips
# ----------------------------------------------------------------------
class TestCompactRoundTrip:
    def test_dict_compact_reloaded_all_equal(self, tmp_path):
        graph, _, query = _workload()
        dict_result = match(query, graph)
        compact_result = match(query, graph.freeze())
        SnapshotStore.save(tmp_path / "snap", graph)
        loaded = SnapshotStore.load(tmp_path / "snap", verify=True)
        assert type(loaded.graph) is CompactGraph
        assert loaded.graph.flat_store.backend == "file"
        reloaded_result = match(query, loaded.graph)
        assert dict_result.edge_matches == compact_result.edge_matches
        assert dict_result.edge_matches == reloaded_result.edge_matches

    def test_graph_contents_survive(self, tmp_path):
        g = random_labeled_graph(random.Random(5), 50, 140)
        SnapshotStore.save(tmp_path / "snap", g)
        loaded = SnapshotStore.load(tmp_path / "snap")
        revived = loaded.graph
        assert set(revived.nodes()) == set(g.nodes())
        assert set(revived.edges()) == set(g.edges())
        for v in g.nodes():
            assert revived.labels(v) == g.labels(v)
            assert revived.attrs(v) == g.attrs(v)

    def test_patch_overlay_and_provenance_preserved(self, tmp_path):
        g = random_labeled_graph(random.Random(6), 40, 100)
        first = g.freeze()
        nodes = sorted(g.nodes(), key=repr)
        added = []
        for v in nodes[:3]:
            w = nodes[-1] if v != nodes[-1] else nodes[0]
            if not g.has_edge(v, w):
                g.add_edge(v, w)
                added.append((v, w))
        assert added
        refreshed = g.freeze()
        assert refreshed._patch is not None
        assert refreshed.extends_token == first.snapshot_token
        SnapshotStore.save(tmp_path / "snap", refreshed)
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert loaded.graph.extends_token == first.snapshot_token
        assert loaded.graph.snapshot_token == refreshed.snapshot_token
        for v, w in added:
            assert loaded.graph.has_edge(v, w)

    def test_save_leaves_the_graph_it_was_given_alone(self, tmp_path):
        # Saving writes the snapshot's tables as they are: the graph's
        # own snapshot keeps its in-process store, before and after a
        # mutation, and no segment outlives the call anywhere but in
        # the directory.
        segments = shm_segments()
        g = random_labeled_graph(random.Random(10), 40, 100)
        SnapshotStore.save(tmp_path / "snap", g)
        assert g.freeze().flat_store.backend == "bytes"
        nodes = sorted(g.nodes(), key=repr)
        source = next(v for v in nodes if not g.has_edge(v, nodes[0]))
        g.add_edge(source, nodes[0])
        assert g.freeze().flat_store.backend == "bytes"
        assert shm_segments() <= segments
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert not loaded.graph.has_edge(source, nodes[0])

    def test_overwrite_guard_and_swap(self, tmp_path):
        g1 = random_labeled_graph(random.Random(7), 20, 40)
        g2 = random_labeled_graph(random.Random(8), 30, 60)
        SnapshotStore.save(tmp_path / "snap", g1)
        with pytest.raises(SnapshotError, match="overwrite"):
            SnapshotStore.save(tmp_path / "snap", g2)
        SnapshotStore.save(tmp_path / "snap", g2, overwrite=True)
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert set(loaded.graph.edges()) == set(g2.edges())


# ----------------------------------------------------------------------
# Rejection of damaged directories
# ----------------------------------------------------------------------
class TestRejection:
    @pytest.fixture
    def saved(self, tmp_path):
        g = random_labeled_graph(random.Random(9), 30, 80)
        SnapshotStore.save(tmp_path / "snap", g)
        return tmp_path / "snap"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore.load(tmp_path / "nope")

    def test_garbled_manifest(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError):
            SnapshotStore.load(saved)

    @pytest.mark.parametrize("fmt", [1, 99])
    def test_other_format_versions_refused(self, saved, fmt):
        # Format 1 (rebuild-on-load sharded bookkeeping) has no load
        # path any more; the error names the way to re-create it.
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        assert manifest["format"] == 2
        manifest["format"] = fmt
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        for read in (SnapshotStore.load, SnapshotStore.info):
            with pytest.raises(
                SnapshotError,
                match=f"unsupported snapshot format {fmt}.*repro ingest.*snapshot save",
            ):
                read(saved)

    def test_corrupt_segment_header(self, saved):
        seg = saved / "graph.seg"
        data = bytearray(seg.read_bytes())
        data[0] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError, match="magic"):
            SnapshotStore.load(saved)

    def test_corrupt_payload_caught_by_verify(self, saved):
        seg = saved / "graph.seg"
        data = bytearray(seg.read_bytes())
        data[48] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError):
            SnapshotStore.load(saved, verify=True)


# ----------------------------------------------------------------------
# Crash safety: durable writes, a swap that fails, torn files
# ----------------------------------------------------------------------
def _layout(kind, path, overwrite=False):
    """Save a snapshot directory of one layout; the two hold every file
    kind the format has: a sharded graph with pickled views, and a
    refreshed compact graph (``patch.pkl``) with segment-backed views."""
    graph = random_graph(80, 200, labels=LABELS, seed=71)
    if kind == "sharded":
        snapshot, _ = ingested(*str_keyed(graph), 2, Path(path).parent)
    else:
        graph.freeze()
        nodes = sorted(graph.nodes(), key=repr)
        for v in nodes[:6]:
            graph.add_edge(v, nodes[-1])
        snapshot = graph.freeze()  # a refresh: a patch
    views = ViewSet(generate_views(LABELS, 3, seed=71))
    views.materialize(snapshot)
    SnapshotStore.save(path, snapshot, views=views, overwrite=overwrite)
    return path


#: Every file of the two layouts; a test below checks they are complete.
LAYOUT_FILES = {
    "sharded": [
        "boundary-000.seg", "boundary-001.seg", "manifest.json",
        "shard-000.seg", "shard-001.seg",
        "view-000.view", "view-001.view", "view-002.view",
    ],
    "compact": [
        "graph.seg", "manifest.json", "patch.pkl",
        "view-000.pkl", "view-000.seg", "view-001.pkl", "view-001.seg",
        "view-002.pkl", "view-002.seg",
    ],
}


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    root = tmp_path_factory.mktemp("layouts")
    return {kind: _layout(kind, root / kind) for kind in LAYOUT_FILES}


class TestCrashSafety:
    def test_failed_swap_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        g1 = random_labeled_graph(random.Random(7), 20, 40)
        g2 = random_labeled_graph(random.Random(8), 30, 60)
        SnapshotStore.save(tmp_path / "snap", g1)
        real_rename = os.rename
        calls = []

        def rename(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:  # the new build into place
                raise OSError("injected rename failure")
            real_rename(src, dst)

        monkeypatch.setattr(os, "rename", rename)
        with pytest.raises(OSError, match="injected"):
            SnapshotStore.save(tmp_path / "snap", g2, overwrite=True)
        monkeypatch.undo()
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert set(loaded.graph.edges()) == set(g1.edges())
        # Neither the temp build nor the parked ``.old`` copy is left.
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("producer", ["save", "ingest"])
    def test_every_file_and_directory_is_fsynced(
        self, tmp_path, monkeypatch, producer, overwrite
    ):
        target = tmp_path / "snap"

        def write():
            if producer == "save":
                _layout("compact", target, overwrite=True)
            else:
                ingest_snapshot(
                    iter(_random_edges(200, 40)), target,
                    num_shards=2, overwrite=True,
                )

        if overwrite:
            write()  # the second write swaps out a populated directory
        synced = set()
        real_fsync = os.fsync

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        write()
        # Renames keep inodes: every file of the final directory, the
        # directory itself (its entries) and its parent (the swap).
        wanted = {os.stat(p).st_ino for p in target.iterdir()}
        wanted |= {os.stat(target).st_ino, os.stat(tmp_path).st_ino}
        assert wanted <= synced

    def test_layouts_hold_every_file_kind(self, layouts):
        for kind, path in layouts.items():
            assert sorted(os.listdir(path)) == LAYOUT_FILES[kind]

    @pytest.mark.parametrize("cut", ["header", "middle"])
    @pytest.mark.parametrize(
        "kind, name",
        [(kind, name) for kind in LAYOUT_FILES for name in LAYOUT_FILES[kind]],
    )
    def test_torn_file_is_refused(self, layouts, tmp_path, kind, name, cut):
        """A file cut short at its header boundary (a segment's fixed
        header; offset 0 -- an empty file -- for JSON and pickles) or
        at its midpoint never loads as a graph."""
        copy = tmp_path / "snap"
        shutil.copytree(layouts[kind], copy)
        victim = copy / name
        data = victim.read_bytes()
        header = _FILE_HEADER_SIZE if name.endswith(".seg") else 0
        size = header if cut == "header" else len(data) // 2
        victim.write_bytes(data[:size])
        with pytest.raises((SnapshotError, SegmentFormatError)):
            SnapshotStore.load(copy)


# ----------------------------------------------------------------------
# Views ride along
# ----------------------------------------------------------------------
class TestViewsRoundTrip:
    def test_viewset_survives_and_answers(self, tmp_path):
        graph, views, query = _workload(seed=19)
        live = QueryEngine(views, graph=graph)
        expected = live.answer(query)
        checkpoint = live.checkpoint()
        SnapshotStore.save(
            tmp_path / "snap", checkpoint.snapshot,
            views=checkpoint.extensions,
        )
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert loaded.views
        rebooted = QueryEngine(snapshot_path=loaded)
        got = rebooted.answer(query)
        assert got.edge_matches == expected.edge_matches


# ----------------------------------------------------------------------
# Sharded round trips
# ----------------------------------------------------------------------
class TestShardedRoundTrip:
    def test_sharded_save_load_equivalence(self, tmp_path):
        graph, views, query = _workload(seed=29)
        sharded, graph = ingested(*str_keyed(graph), 3, tmp_path)
        before = sharded_match(query, sharded)
        SnapshotStore.save(tmp_path / "snap", sharded)
        loaded = SnapshotStore.load(tmp_path / "snap", verify=True)
        revived = loaded.graph
        assert revived.num_shards == 3
        assert revived.num_nodes == sharded.num_nodes
        assert revived.num_edges == sharded.num_edges
        assert sharded_match(query, revived) == before
        assert (
            sharded_match(query, revived).edge_matches
            == match(query, graph).edge_matches
        )


# ----------------------------------------------------------------------
# Streaming ingest
# ----------------------------------------------------------------------
class TestIngest:
    def test_matches_in_memory_build(self, tmp_path):
        # Duplicates on purpose: the builder must dedup exactly like
        # DataGraph does, and the manifest counts must agree.
        edges = _random_edges(400, 60) + _random_edges(50, 60)
        report = ingest_snapshot(
            iter(edges), tmp_path / "snap",
            num_shards=3, labeler=_labeler, budget_bytes=1 << 12,
        )
        reference = DataGraph()
        for s, t in edges:
            for node in (s, t):
                if node not in reference:
                    reference.add_node(node, labels=_labeler(node))
            reference.add_edge(s, t)
        loaded = SnapshotStore.load(tmp_path / "snap", verify=True)
        revived = loaded.graph
        assert report.edges == reference.num_edges == revived.num_edges
        assert report.nodes == reference.num_nodes == revived.num_nodes
        assert revived.num_shards == 3
        assert set(revived.edges()) == set(reference.edges())
        assert report.cut_edges == revived.edge_cut == sum(
            _stable_hash(s) % 3 != _stable_hash(t) % 3 for s, t in reference.edges()
        )
        views = ViewSet(generate_views(LABELS, 5, seed=29))
        query = query_from_views(views, 4, 6, seed=29)
        assert (
            sharded_match(query, revived).edge_matches
            == match(query, reference).edge_matches
        )

    def test_streaming_partitioner_spills_under_budget(self, tmp_path):
        edges = _random_edges(300, 40, seed=31)
        with StreamingHashPartitioner(
            3, tmp_path, budget_bytes=256
        ) as part:
            part.add_edges(iter(edges))
            part.flush()
            assert part.spill_bytes > 0
            assert part.edges == len(edges)
            seen = sum(
                1
                for shard in range(3)
                for record in part.shard_records(shard)
                if record[0] == "e"
            )
            assert seen == len(edges)
        assert not list(tmp_path.glob("*.spill"))

    def test_max_edges_guard(self, tmp_path):
        edges = _random_edges(30, 10)
        with pytest.raises(ValueError, match="max_edges"):
            ingest_snapshot(
                iter(edges), tmp_path / "snap", num_shards=2, max_edges=10
            )
        assert not (tmp_path / "snap").exists()

    def test_overwrite(self, tmp_path):
        ingest_snapshot(
            iter(_random_edges(40, 10)), tmp_path / "snap", num_shards=2
        )
        with pytest.raises(SnapshotError, match="overwrite"):
            ingest_snapshot(
                iter(_random_edges(40, 10)), tmp_path / "snap", num_shards=2
            )
        report = ingest_snapshot(
            iter(_random_edges(60, 12, seed=37)),
            tmp_path / "snap",
            num_shards=2,
            overwrite=True,
        )
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert loaded.graph.num_edges == report.edges


# ----------------------------------------------------------------------
# Engine boot from a snapshot directory
# ----------------------------------------------------------------------
class TestEngineBoot:
    def test_compact_boot_equivalence(self, tmp_path):
        graph, views, query = _workload(seed=41)
        live = QueryEngine(views, graph=graph)
        expected = live.answer(query)
        checkpoint = live.checkpoint()
        SnapshotStore.save(
            tmp_path / "snap", checkpoint.snapshot,
            views=checkpoint.extensions,
        )
        booted = QueryEngine(snapshot_path=tmp_path / "snap")
        assert booted.snapshot_path == str(tmp_path / "snap")
        assert booted.answer(query).edge_matches == expected.edge_matches

    def test_sharded_boot_adopts_shards(self, tmp_path):
        graph, views, query = _workload(seed=43)
        snapdir, graph = ingested_dir(*str_keyed(graph), 3, tmp_path)
        views.materialize(graph)
        booted = QueryEngine(views, snapshot_path=snapdir)
        assert booted.snapshot().num_shards == 3
        expected = QueryEngine(views, graph=graph).answer(query)
        assert booted.answer(query).edge_matches == expected.edge_matches

    def test_conflicts_rejected(self, tmp_path):
        graph, views, _ = _workload(seed=47)
        SnapshotStore.save(tmp_path / "snap", graph)
        with pytest.raises(ValueError, match="snapshot_path"):
            QueryEngine(views, graph=graph, snapshot_path=tmp_path / "snap")
        with pytest.raises(ValueError, match="view catalog"):
            QueryEngine()


# ----------------------------------------------------------------------
# Serving layer: epoch persistence and restart
# ----------------------------------------------------------------------
class TestServePersistence:
    def test_epochs_persist_and_reboot(self, tmp_path):
        from repro.serve import QueryServer
        from repro.views.maintenance import Delta, IncrementalViewSet

        graph, views, query = _workload(seed=53)
        tracker = IncrementalViewSet(views.definitions(), graph)
        engine = QueryEngine(views, graph=graph)
        engine.attach_maintenance(tracker)
        persist = tmp_path / "persist"
        server = QueryServer(engine, persist_path=persist)

        async def run():
            async with server:
                first = await server.query(query)
                nodes = sorted(tracker.graph.nodes(), key=repr)
                await server.update(
                    Delta().insert(nodes[0], nodes[-1])
                )
                second = await server.query(query)
                return first, second, dict(server.stats()["requests"])

        first, second, counters = asyncio.run(run())
        assert counters["snapshots_persisted"] == 2
        assert counters["persist_failures"] == 0
        assert first.epoch != second.epoch
        rebooted = QueryEngine(snapshot_path=persist)
        assert (
            rebooted.answer(query).edge_matches == second.result.edge_matches
        )

    def test_snapshot_booted_server_serves(self, tmp_path):
        from repro.serve import QueryServer

        graph, views, query = _workload(seed=59)
        live = QueryEngine(views, graph=graph)
        expected = live.answer(query)
        checkpoint = live.checkpoint()
        SnapshotStore.save(
            tmp_path / "snap", checkpoint.snapshot,
            views=checkpoint.extensions,
        )
        booted = QueryEngine(snapshot_path=tmp_path / "snap")
        server = QueryServer(booted)

        async def run():
            async with server:
                return await server.query(query)

        answer = asyncio.run(run())
        assert answer.result.edge_matches == expected.edge_matches


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_ingest_info_load_stats(self, tmp_path, capsys):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text(
            "# comment\n"
            + "".join(f"{s[1:]}\t{t[1:]}\n" for s, t in _random_edges(200, 40))
        )
        out = tmp_path / "snap"
        assert cli_main([
            "ingest", "--edges", str(edge_file), "--out", str(out),
            "--shards", "2", "--labels", "4", "--format", "json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["edges"] > 0
        assert report["on_disk_bytes"] > 0

        assert cli_main([
            "snapshot", "info", str(out), "--verify", "--format", "json",
        ]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["manifest"]["kind"] == "sharded"
        assert info["verified_segments"]

        assert cli_main(["snapshot", "load", str(out), "--verify"]) == 0
        assert "loaded sharded snapshot" in capsys.readouterr().out

        # Per-segment table bytes come from the segment headers alone.
        assert cli_main(["snapshot", "info", str(out), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        segments = info["segments"]
        assert sorted(segments) == sorted(
            name for name in info["files"] if name.endswith(".seg")
        )
        for name in ("shard-000.seg", "shard-001.seg"):
            assert 0 < sum(segments[name].values()) < info["files"][name]
        assert info["on_disk_bytes"] > 0
        loaded = SnapshotStore.load(out)
        assert all(
            loaded.graph.shard(i).flat_store.backend == "file"
            for i in range(loaded.graph.num_shards)
        )

    def test_snapshot_save_cli(self, tmp_path, capsys):
        from repro.graph.io import write_graph

        graph, _, _ = _workload(seed=61)
        write_graph(graph, tmp_path / "g.json")
        assert cli_main([
            "snapshot", "save", "--graph", str(tmp_path / "g.json"),
            "--out", str(tmp_path / "snap"),
        ]) == 0
        assert "saved compact snapshot" in capsys.readouterr().out
        loaded = SnapshotStore.load(tmp_path / "snap")
        assert loaded.graph.num_edges == graph.num_edges
        # Sharded directories come from `repro ingest` only.
        with pytest.raises(SystemExit):
            cli_main([
                "snapshot", "save", "--graph", str(tmp_path / "g.json"),
                "--out", str(tmp_path / "sharded"), "--shards", "2",
            ])
