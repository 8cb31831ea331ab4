"""Persistent snapshot directories and streaming out-of-core ingest.

Round trips through :mod:`repro.graph.snapshot` and
:mod:`repro.graph.ingest`: save -> load -> query equivalence against
the in-memory backends (dict graph == compact == reloaded mmap),
manifest/segment corruption rejection, patch-overlay and provenance
preservation, sharded round trips, the shard-at-a-time ingest builder,
crash safety (fsync coverage, a writer killed at every call, torn files,
older formats refused, no pickle run by a load),
``QueryEngine(snapshot_path=...)`` boots, epoch persistence in the
serving layer, and the CLI surface over all of it.
"""

import ast
import asyncio
import gc
import itertools
import json
import os
import pickle
import random
import shutil
import traceback
from pathlib import Path

import pytest

import repro.graph
from helpers import (
    apply_ops,
    ingested,
    ingested_dir,
    matchjoin_metrics,
    random_labeled_graph,
    shm_segments,
    str_keyed,
)
from repro.cli import main as cli_main
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import DataGraph, Pattern
from repro.graph.flatbuf import _FILE_HEADER_SIZE, SegmentFormatError
from repro.graph.ingest import ingest_snapshot
from repro.graph.snapshot import (
    MANIFEST_NAME,
    SnapshotError,
    SnapshotStore,
    live_directory,
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


def _reference(edges):
    """The DataGraph ingest must reproduce from ``edges`` under
    :func:`_labeler`."""
    reference = DataGraph()
    for s, t in edges:
        for node in (s, t):
            if node not in reference:
                reference.add_node(node, labels=_labeler(node))
        reference.add_edge(s, t)
    return reference


def _refreshed(seed):
    """A random graph and a snapshot of it with a patch: its first
    freeze with a batch applied (the graph moved by the same ops)."""
    graph = random_graph(80, 200, labels=LABELS, seed=seed)
    first = graph.freeze()
    nodes = sorted(graph.nodes(), key=repr)
    ops = [("insert", v, nodes[-1]) for v in nodes[:6]]
    apply_ops(graph, ops)
    return graph, first.applied(ops)


# ----------------------------------------------------------------------
# Compact round trips
# ----------------------------------------------------------------------
class TestCompactRoundTrip:
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
                added.append((v, w))
        assert added
        refreshed = first.applied([("insert", v, w) for v, w in added])
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
        (Path(live_directory(saved)) / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError):
            SnapshotStore.load(saved)

    @pytest.mark.parametrize("fmt", [1, 2, 99])
    def test_other_format_versions_refused(self, saved, fmt):
        # Format 1 (rebuild-on-load sharded bookkeeping) and format 2
        # (pickled patches, views and blobs) have no load path any more;
        # the error names the way to re-create them.
        live = Path(live_directory(saved))
        manifest = json.loads((live / MANIFEST_NAME).read_text())
        assert manifest["format"] == 3
        manifest["format"] = fmt
        (live / MANIFEST_NAME).write_text(json.dumps(manifest))
        for read in (SnapshotStore.load, SnapshotStore.info):
            with pytest.raises(
                SnapshotError,
                match=f"unsupported snapshot format {fmt}.*repro ingest.*snapshot save",
            ):
                read(saved)

    def test_version_1_segment_refused(self, saved):
        # Version 1 held a pickled table directory; the segment's own
        # error names the way to re-create the directory.
        seg = Path(live_directory(saved)) / "graph.seg"
        data = bytearray(seg.read_bytes())
        data[8:12] = (1).to_bytes(4, "little")
        seg.write_bytes(bytes(data))
        with pytest.raises(
            SegmentFormatError,
            match="segment format version 1.*repro ingest.*snapshot save",
        ):
            SnapshotStore.load(saved)

    def test_flat_layout_refused(self, saved):
        # Files directly under the path (the layout before generations)
        # are not read as a snapshot.
        live = Path(live_directory(saved))
        for entry in live.iterdir():
            entry.rename(saved / entry.name)
        live.rmdir()
        assert live_directory(saved) == str(saved)
        for read in (SnapshotStore.load, SnapshotStore.info):
            with pytest.raises(
                SnapshotError, match="not a snapshot directory.*repro ingest"
            ):
                read(saved)

    @pytest.mark.parametrize(
        "value", [("a", 1), object()], ids=["tuple", "object"]
    )
    def test_unencodable_attribute_refused_at_save(self, tmp_path, value):
        graph = random_labeled_graph(random.Random(9), 30, 80)
        victim = sorted(graph.nodes(), key=repr)[3]
        graph.add_node(victim, attrs={"odd": value})
        with pytest.raises(SnapshotError, match=f"node {victim!r}: attribute 'odd'"):
            SnapshotStore.save(tmp_path / "snap", graph)
        assert not (tmp_path / "snap").exists()

    def test_unencodable_key_refused_at_save(self, tmp_path):
        graph = random_labeled_graph(random.Random(9), 30, 80)
        graph.add_edge(frozenset({1, 2}), sorted(graph.nodes(), key=repr)[0])
        with pytest.raises(SnapshotError, match=r"node frozenset\(\{1, 2\}\): a saved key"):
            SnapshotStore.save(tmp_path / "snap", graph)

    def test_view_not_bound_to_the_snapshot_refused(self, tmp_path):
        graph, views, _ = _workload(seed=13)
        views.materialize(graph.copy())  # bound to the copy's snapshot
        with pytest.raises(SnapshotError, match="not bound.*materialise"):
            SnapshotStore.save(tmp_path / "snap", graph, views=views)
        views.materialize(graph)
        SnapshotStore.save(tmp_path / "snap", graph, views=views)

    def test_corrupt_segment_header(self, saved):
        seg = Path(live_directory(saved)) / "graph.seg"
        data = bytearray(seg.read_bytes())
        data[0] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError, match="magic"):
            SnapshotStore.load(saved)

    def test_corrupt_payload_caught_by_verify(self, saved):
        seg = Path(live_directory(saved)) / "graph.seg"
        data = bytearray(seg.read_bytes())
        data[48] ^= 0xFF
        seg.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError):
            SnapshotStore.load(saved, verify=True)


# ----------------------------------------------------------------------
# Crash safety: durable writes, a killed writer, torn files, old layouts
# ----------------------------------------------------------------------
def _layout(kind, path, overwrite=False):
    """Save a snapshot directory of one layout; the two hold every file
    kind the format has: a sharded graph with views, and a patched
    compact graph (``patch.json``) with views.  Returns the path and
    the DataGraph the snapshot holds."""
    if kind == "sharded":
        graph = random_graph(80, 200, labels=LABELS, seed=71)
        snapshot, graph = ingested(*str_keyed(graph), 2, Path(path).parent)
    else:
        graph, snapshot = _refreshed(71)
    views = ViewSet(generate_views(LABELS, 3, seed=71))
    views.materialize(snapshot)
    SnapshotStore.save(path, snapshot, views=views, overwrite=overwrite)
    return path, graph


#: Every file of the two layouts; a test below checks they are complete.
LAYOUT_FILES = {
    "sharded": [
        "boundary-000.seg", "boundary-001.seg", "manifest.json",
        "shard-000.seg", "shard-001.seg",
        "view-000.json", "view-000.seg", "view-001.json", "view-001.seg",
        "view-002.json", "view-002.seg",
    ],
    "compact": [
        "graph.seg", "manifest.json", "patch.json",
        "view-000.json", "view-000.seg", "view-001.json", "view-001.seg",
        "view-002.json", "view-002.seg",
    ],
}


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    root = tmp_path_factory.mktemp("layouts")
    return {kind: _layout(kind, root / kind) for kind in LAYOUT_FILES}


#: The exit status of a drilled child killed on purpose.
KILLED = 75


def _killed(k, write):
    """Run ``write()`` in a forked child that dies (``os._exit``) at its
    k-th call of ``os.fsync`` / ``replace`` / ``rename`` / ``unlink`` /
    ``rmdir``; True if it finished first."""
    pid = os.fork()
    if pid == 0:  # the child: never returns
        calls = itertools.count(1)

        def dying(real):
            def call(*args, **kwargs):
                if next(calls) == k:
                    os._exit(KILLED)
                return real(*args, **kwargs)

            return call

        try:
            for name in ("fsync", "replace", "rename", "unlink", "rmdir"):
                setattr(os, name, dying(getattr(os, name)))
            write()
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    assert status in (0, KILLED), f"the child failed at call {k}"
    return status == 0


def _generation(kind, seed, path):
    """``(write, graph)``: an overwriting write of one snapshot of
    ``kind`` to ``path`` -- a refreshed compact graph with views, or an
    ingest -- and the DataGraph it holds."""
    if kind == "sharded":
        edges = _random_edges(200, 40, seed=seed)
        return (
            lambda: ingest_snapshot(
                iter(edges), path, num_shards=2, labeler=_labeler, overwrite=True
            ),
            _reference(edges),
        )
    graph, snapshot = _refreshed(seed)
    views = ViewSet(generate_views(LABELS, 3, seed=seed))
    views.materialize(snapshot)
    return (
        lambda: SnapshotStore.save(path, snapshot, views=views, overwrite=True),
        graph,
    )


class TestCrashSafety:
    @pytest.mark.parametrize("kind", ["compact", "sharded"])
    def test_a_killed_write_leaves_the_old_or_the_new_snapshot(
        self, tmp_path, monkeypatch, kind
    ):
        """Kill an overwriting write of generation N+1 at each of its
        calls in turn: the path always loads generation N or N+1 and
        answers like that generation's oracle, and the next clean write
        leaves only the live generation in it."""
        # A kill, not a power cut; and ingest's per-shard full
        # collection is not what this checks.
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        monkeypatch.setattr(gc, "collect", lambda *args: 0)
        path = tmp_path / "snap"
        writes, graphs = zip(*(_generation(kind, seed, path) for seed in (5, 6)))
        queries = [view.pattern for view in generate_views(LABELS, 3, seed=71)]
        edge_sets = [set(graph.edges()) for graph in graphs]
        expected = [[match(q, graph).edge_matches for q in queries] for graph in graphs]
        assert edge_sets[0] != edge_sets[1] and any(map(any, expected))
        seen = set()
        for k in itertools.count(1):
            writes[0]()  # generation N, over whatever the last kill left
            assert os.listdir(path) == [os.path.basename(live_directory(path))]
            assert SnapshotStore.info(path)["stale"] == []
            finished = _killed(k, writes[1])
            loaded = SnapshotStore.load(path)
            generation = edge_sets.index(set(loaded.graph.edges()))
            engine = QueryEngine(snapshot_path=loaded)
            assert [engine.answer(q).edge_matches for q in queries] == expected[
                generation
            ], k
            seen.add(generation)
            if finished:
                break
        # The last run finished; earlier kills landed on both sides of
        # the commit.
        assert generation == 1 and seen == {0, 1}

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
            write()  # the second write replaces a populated directory
        synced = set()
        real_fsync = os.fsync

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        write()
        # Renames keep inodes: every file of the live generation, the
        # generation directory (its entries), the path (the generation's
        # entry) and its parent.
        live = Path(live_directory(target))
        wanted = {os.stat(p).st_ino for p in live.iterdir()}
        wanted |= {os.stat(d).st_ino for d in (live, target, tmp_path)}
        assert wanted <= synced

    def test_layouts_hold_every_file_kind(self, layouts):
        for kind, (path, _) in layouts.items():
            assert sorted(os.listdir(live_directory(path))) == LAYOUT_FILES[kind]

    @pytest.mark.parametrize("kind", sorted(LAYOUT_FILES))
    def test_a_load_runs_no_pickle(self, layouts, monkeypatch, kind):
        """With pickle's readers patched to raise, each layout loads and
        answers a view query (MatchJoin in id space) and a direct query
        like the oracle."""

        def refuse(*args, **kwargs):
            raise AssertionError("a snapshot load ran pickle")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        path, graph = layouts[kind]
        loaded = SnapshotStore.load(path, verify=True)
        assert len(loaded.views) == 3
        view = max(loaded.views.values(), key=lambda view: view.num_pairs)
        query = view.definition.pattern
        expected = match(query, graph).edge_matches
        assert any(expected.values())
        with matchjoin_metrics() as count:
            answer = QueryEngine(snapshot_path=loaded).answer(query)
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
        assert answer.stats.strategy == "matchjoin"
        assert answer.edge_matches == expected
        direct = QueryEngine(ViewSet(), snapshot_path=loaded).answer(query)
        assert direct.stats.strategy == "direct"
        assert direct.edge_matches == expected

    @pytest.mark.parametrize("cut", ["header", "middle"])
    @pytest.mark.parametrize(
        "kind, name",
        [(kind, name) for kind in LAYOUT_FILES for name in LAYOUT_FILES[kind]],
    )
    def test_torn_file_is_refused(self, layouts, tmp_path, kind, name, cut):
        """A file cut short at its header boundary (a segment's fixed
        header; offset 0 -- an empty file -- for JSON) or at its
        midpoint never loads as a graph."""
        copy = tmp_path / "snap"
        shutil.copytree(layouts[kind][0], copy)
        victim = Path(live_directory(copy)) / name
        data = victim.read_bytes()
        header = _FILE_HEADER_SIZE if name.endswith(".seg") else 0
        size = header if cut == "header" else len(data) // 2
        victim.write_bytes(data[:size])
        with pytest.raises((SnapshotError, SegmentFormatError)):
            SnapshotStore.load(copy)


def test_no_graph_module_imports_pickle():
    """A snapshot directory holds int tables and JSON only: nothing in
    the graph layer can read or write a pickle."""
    for source in sorted(Path(repro.graph.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        imported = {
            name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (
                [node.module or ""]
                if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
        }
        assert "pickle" not in imported, source.name


@pytest.mark.parametrize(
    "form",
    ["fresh", "refreshed", "loaded", "sharded", "store", "extension", "view", "loaded view"],
)
def test_a_snapshot_refuses_to_pickle(form, tmp_path):
    """A snapshot leaves a process only as a snapshot directory: pickling
    one in any form, its store, a view's id rows or a view carrying them
    raises the store's one ``TypeError``.  An answer read off it is a
    plain result, and that still pickles."""
    graph, views, _ = _workload(seed=29)
    views.materialize(graph)
    snapshot = graph.freeze()
    SnapshotStore.save(tmp_path / "snap", snapshot, views=views)
    loaded = SnapshotStore.load(tmp_path / "snap")
    view = max(views.extensions().values(), key=lambda view: view.num_pairs)
    pattern = view.definition.pattern
    if form == "refreshed":
        source, target = next(
            (v, w) for v in graph.nodes() for w in graph.nodes() if not graph.has_edge(v, w)
        )
        previous, snapshot = snapshot, snapshot.applied([("insert", source, target)])
        assert snapshot.extends_token == previous.snapshot_token
    if form == "sharded":
        snapshot = ingested(*str_keyed(graph), 3, tmp_path)[0]
    subject = {
        "loaded": lambda: loaded.graph,
        "store": lambda: snapshot.flat_store,
        "extension": lambda: view.compact,
        "view": lambda: view,
        "loaded view": lambda: loaded.views[view.name],
    }.get(form, lambda: snapshot)()
    with pytest.raises(TypeError, match="does not pickle"):
        pickle.dumps(subject)
    answer = (
        QueryEngine(snapshot_path=loaded).answer(pattern)
        if "view" in form or form == "extension"
        else match(pattern, loaded.graph if form == "loaded" else snapshot)
    )
    assert answer and not dict.__len__(answer.node_matches)  # nothing decoded yet
    assert pickle.loads(pickle.dumps(answer)) == answer


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
        reference = _reference(edges)
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

    def test_a_snapshot_server_takes_updates_across_a_restart(self, tmp_path):
        """``snapshot save``; ``serve --snapshot DIR --persist`` takes an
        update over TCP; a restart from DIR takes a second; a query then
        equals ``match`` on a dict graph both batches moved.  A sharded
        directory still boots, read-only, and serves reads."""
        import argparse

        from repro.cli import _maintained_engine
        from repro.graph.io import pattern_to_json, write_graph
        from repro.serve import QueryServer, serve_tcp
        from repro.serve.wire import result_fragment
        from repro.views.io import write_viewset
        from repro.views.maintenance import Delta

        graph, views, _ = _workload(seed=67)
        write_graph(graph, tmp_path / "g.json")
        write_viewset(views, tmp_path / "v.json")
        snap = str(tmp_path / "snap")
        assert cli_main([
            "snapshot", "save", "--graph", str(tmp_path / "g.json"),
            "--views", str(tmp_path / "v.json"), "--out", snap,
        ]) == 0
        pattern = max(
            (d.pattern for d in views), key=lambda p: match(p, graph).result_size
        )
        matched = sorted(next(iter(match(pattern, graph).edge_matches.values())))
        rng = random.Random(67)
        nodes = sorted(graph.nodes())
        mirror = graph.copy()
        boot = argparse.Namespace(snapshot=snap, graph=None, views=None)

        async def serve_once(ops):
            engine = _maintained_engine(boot)
            assert engine.graph is engine.snapshot() is engine.maintenance.graph
            async with QueryServer(engine, persist_path=snap) as server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)

                async def call(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                updated = await call({"op": "update", "ops": ops})
                answer = await call({"op": "query", "pattern": pattern_to_json(pattern)})
                writer.close()
                tcp.close()
                await tcp.wait_closed()
            return updated, answer

        for pair in matched[:2]:
            ops = [["-", *pair]] + [["+", *rng.sample(nodes, 2)] for _ in range(4)]
            updated, answer = asyncio.run(serve_once(ops))
            assert updated["ok"] and updated["applied"] >= 1
            apply_ops(mirror, Delta((op, source, target) for op, source, target in ops))
            expected = json.loads(result_fragment(match(pattern, mirror)))
            assert answer["ok"] and answer["result"]["edge_matches"] == expected["edge_matches"]
        restarted = SnapshotStore.load(snap).graph
        assert sorted(restarted.edges()) == sorted(mirror.edges())

        sharded, reference = ingested_dir(_random_edges(300, 60), _labeler, 2, tmp_path)
        engine = _maintained_engine(argparse.Namespace(snapshot=sharded, graph=None, views=None))
        assert engine.maintenance is None and engine.catalog.snapshot_kind == "sharded"
        query = Pattern()
        query.add_node("a", "l0")
        query.add_node("b", "l1")
        query.add_edge("a", "b")
        assert engine.answer(query).edge_matches == match(query, reference).edge_matches

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
        assert booted.snapshot_path == str(tmp_path / "snap")
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

    def test_snapshot_save_with_views_writes_id_rows(self, tmp_path, capsys):
        """``snapshot save --views`` materialises on the snapshot it
        saves: every view lands as id rows, and a view query after
        ``snapshot load`` joins in id space."""
        from repro.graph.io import read_graph, write_pattern
        from repro.views.io import read_viewset

        graph_file, views_file = tmp_path / "g.json", tmp_path / "v.json"
        assert cli_main([
            "generate", "--dataset", "amazon", "--nodes", "400", "--edges", "1200",
            "--out", str(graph_file), "--views", str(views_file),
        ]) == 0
        out = tmp_path / "snap"
        assert cli_main([
            "snapshot", "save", "--graph", str(graph_file),
            "--views", str(views_file), "--out", str(out),
        ]) == 0
        views = read_viewset(views_file)
        names = [
            f"view-{i:03d}{suffix}" for i in range(len(views)) for suffix in (".json", ".seg")
        ]
        assert sorted(os.listdir(live_directory(out))) == sorted(
            ["graph.seg", "manifest.json", *names]
        )
        graph = read_graph(graph_file)
        query = max(
            (view.pattern for view in views),
            key=lambda pattern: match(pattern, graph).result_size,
        )
        write_pattern(query, tmp_path / "q.json")
        capsys.readouterr()
        with matchjoin_metrics() as count:
            assert cli_main([
                "snapshot", "load", str(out), "--query", str(tmp_path / "q.json"),
            ]) == 0
            assert (count("total", "ids"), count("total", "keys")) == (1, 0)
        expected = match(query, graph).result_size
        assert expected > 0
        assert f"query: {expected} pairs via matchjoin" in capsys.readouterr().out
