"""Snapshot format 2: persisted boundary rows, lazy name-keyed tables.

A sharded snapshot directory holds, per shard, the flat int rows an
id-space evaluation needs (local -> global id row, bridge pairs), so a
reload attaches instead of rebuilding; everything keyed by node name is
derived on first name-based access.  The property below checks that an
ingested graph answers exactly like the single snapshot of the same
edges; the count-based tests check that a load plus a direct match
really does none of the old work; the out-of-core test streams
1x/10x/30x edge counts through ingest under one fixed RSS ceiling.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ingested, random_pattern
from repro.cli import main as cli_main
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.engine import QueryEngine
from repro.graph import ANY, BoundedPattern, DataGraph
from repro.graph.compact import CompactGraph
from repro.graph.flatbuf import SegmentFormatError
from repro.graph.ingest import ingest_snapshot
from repro.graph.io import graph_from_edges
from repro.graph.snapshot import SnapshotStore, live_directory
from repro.shard.partitioner import _stable_hash
from repro.simulation import bounded_match, match
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition

LABELS = "ABC"


def _labeler(node):
    return (LABELS[int(node[1:]) % len(LABELS)],)


def _bridge_names(sharded):
    """Every bridge pair as ``(owner, holder, node key)``, checking on
    the way that both ids of a pair name the same node on their own
    side of the boundary."""
    found = set()
    for owner in range(sharded.num_shards):
        for holder, translate in sharded.bridges(owner):
            assert holder != owner
            for local, ghost in translate.items():
                assert local < sharded.own_count(owner)
                assert ghost >= sharded.own_count(holder)
                node = sharded.shard(owner).node_of(local)
                assert sharded.shard(holder).node_of(ghost) == node
                found.add((owner, holder, node))
    return found


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=1, max_value=4),
)
def test_ingested_graph_equals_single_snapshot(seed, shards):
    """For k = 1..4 an ingested graph answers like the single snapshot
    of the same edges: ``match``, ``bounded_match`` (``*`` bounds and
    self-loops included), materialize -> MatchJoin, and the traversal
    reads."""
    rng = random.Random(seed)
    num_nodes = rng.randint(3, 24)
    edges = [
        (f"n{rng.randrange(num_nodes)}", f"n{rng.randrange(num_nodes)}")
        for _ in range(rng.randint(3, 60))
    ]
    edges += [(node, node) for node, _ in rng.sample(edges, 2)]
    query = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
    query.add_edge(*rng.choice(sorted(query.edges())))
    loop = rng.choice(sorted(query.nodes()))
    query.add_edge(loop, loop)
    bounded = BoundedPattern()
    for node in query.nodes():
        bounded.add_node(node, query.condition(node))
    for source, target in query.edges():
        bounded.add_edge(source, target, rng.choice([1, 2, ANY]))
    with tempfile.TemporaryDirectory() as tmp:
        got, graph = ingested(edges, _labeler, shards, tmp)
        single = graph.freeze()
        assert (got.num_shards, got.num_nodes, got.num_edges) == (
            shards, single.num_nodes, single.num_edges,
        )
        for pattern, evaluate in ((query, match), (bounded, bounded_match)):
            assert evaluate(pattern, got) == evaluate(pattern, single)
        views = ViewSet([
            ViewDefinition("q", query),
            ViewDefinition("r", random_pattern(rng, 3, 3)),
        ])
        views.materialize(got)
        containment = contains(query, views)
        assert containment.holds
        # The answer is the edge matches (a join reports a sink's node
        # matches as the targets it reached, Match as all candidates).
        assert (
            match_join(query, containment, views).edge_matches
            == match(query, single).edge_matches
        )
        for node in graph.nodes():
            assert got.successors(node) == single.successors(node)
            assert got.predecessors(node) == single.predecessors(node)
            bound = rng.randint(1, 4)
            assert got.descendants_within(node, bound) == single.descendants_within(
                node, bound
            )
        # The boundary rows bridge exactly the cut edges' targets.
        def home(node):
            return _stable_hash(node) % shards

        assert _bridge_names(got) == {
            (home(t), home(s), t) for s, t in graph.edges() if home(s) != home(t)
        }


# ----------------------------------------------------------------------
# Laziness, by counting
# ----------------------------------------------------------------------
@pytest.fixture
def snapdir(tmp_path):
    rng = random.Random(11)
    edges = [
        (f"n{rng.randrange(400)}", f"n{rng.randrange(400)}") for _ in range(1500)
    ]
    ingest_snapshot(iter(edges), tmp_path / "snap", num_shards=4, labeler=_labeler)
    query = random_pattern(random.Random(2), 3, 2)
    return tmp_path / "snap", edges, query


def test_load_plus_direct_match_does_no_name_work(snapdir, monkeypatch):
    path, edges, query = snapdir
    calls = {"id_of": 0, "node_of": 0}
    real_id_of, real_node_of = CompactGraph.id_of, CompactGraph.node_of

    def id_of(self, node):
        calls["id_of"] += 1
        return real_id_of(self, node)

    def node_of(self, i):
        calls["node_of"] += 1
        return real_node_of(self, i)

    class CountedTable:
        """``node_table`` reads are decodes too (the kernel's extractor
        indexes the table directly)."""

        def __init__(self, snapshot):
            self.snapshot = snapshot

        def __getitem__(self, i):
            return node_of(self.snapshot, i)

    monkeypatch.setattr(CompactGraph, "id_of", id_of)
    monkeypatch.setattr(CompactGraph, "node_of", node_of)
    monkeypatch.setattr(CompactGraph, "node_table", property(CountedTable))

    # No pickled boundary tables exist to open, crosspred or otherwise.
    live = Path(live_directory(path))
    assert sorted(p.suffix for p in live.iterdir()) == [".json"] + [".seg"] * 8

    loaded = SnapshotStore.load(path)
    assert calls == {"id_of": 0, "node_of": 0}
    graph = loaded.graph
    derived = ("_home", "_ghost_shards", "node_table")
    assert not [name for name in derived if name in vars(graph)]

    engine = QueryEngine(ViewSet(), snapshot_path=loaded)
    result = engine.answer(query)
    assert result.stats.strategy == "direct" and result.result_size > 0
    assert calls["id_of"] == 0
    # Only the answer is decoded: each source once per edge, each pair's
    # target, each node match.
    answer_names = sum(
        len({v for v, _ in pairs}) + len(pairs)
        for pairs in result.edge_matches.values()
    ) + sum(len(nodes) for nodes in result.node_matches.values())
    assert 0 < calls["node_of"] <= answer_names
    assert not [name for name in derived if name in vars(graph)]

    # ... and it is the right answer.
    reference = DataGraph()
    for source, target in edges:
        for node in (source, target):
            if node not in reference:
                reference.add_node(node, labels=_labeler(node))
        reference.add_edge(source, target)
    assert result.edge_matches == match(query, reference).edge_matches
    # The first name-based access derives what it needs, once.
    assert graph.predecessors("n1") == reference.predecessors("n1")
    assert "_home" in vars(graph) and "_ghost_shards" in vars(graph)


def test_sharded_answer_counts_without_decoding_any_shard(snapdir):
    path, edges, query = snapdir
    loaded = SnapshotStore.load(path)
    graph = loaded.graph
    shards = [graph.shard(i) for i in range(graph.num_shards)]
    result = QueryEngine(ViewSet(), snapshot_path=loaded).answer(query)
    assert result.stats.strategy == "direct" and result.result_size > 0
    assert result.total_node_matches() > 0
    # The merged answer built no set, and no shard unpickled its names.
    assert dict.__len__(result.edge_matches) == dict.__len__(result.node_matches) == 0
    assert all(shard.node_table._table is None for shard in shards)
    assert "node_table" not in vars(graph)
    reference = graph_from_edges(edges, labeler=_labeler)
    expected = match(query, reference)
    assert result.edge_matches == expected.edge_matches
    assert result.node_matches == expected.node_matches
    assert result.result_size == expected.result_size
    assert "node_table" not in vars(graph)


# ----------------------------------------------------------------------
# info / verify cover the boundary rows
# ----------------------------------------------------------------------
def test_info_lists_boundary_rows_and_verify_checks_them(snapdir, capsys):
    path, _, _ = snapdir
    info = SnapshotStore.info(path, verify=True)
    graph = SnapshotStore.load(path).graph
    assert info["manifest"]["format"] == 2
    assert sorted(info["boundary"]) == [f"boundary-{i:03d}.seg" for i in range(4)]
    for index, (fname, row) in enumerate(sorted(info["boundary"].items())):
        assert fname in info["verified_segments"]
        assert row["rows"] == graph.shard(index).num_nodes
        ghosts = graph.shard(index).num_nodes - graph.own_count(index)
        assert row["bridge_pairs"] == ghosts
        assert row["bytes"] == info["files"][fname]

    assert cli_main(["snapshot", "info", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["boundary"] == info["boundary"]
    assert cli_main(["snapshot", "info", str(path), "--verify"]) == 0
    text = capsys.readouterr().out
    assert "snapshot (format 2)" in text
    assert text.count("boundary rows:") == 4 and text.count("[crc ok]") == 8

    # Flip one payload byte of a boundary segment: the cheap attach
    # still succeeds, every --verify surface refuses it.
    victim = Path(live_directory(path)) / "boundary-002.seg"
    data = bytearray(victim.read_bytes())
    data[48] ^= 0xFF
    victim.write_bytes(bytes(data))
    SnapshotStore.load(path)
    with pytest.raises(SegmentFormatError, match="checksum"):
        SnapshotStore.load(path, verify=True)
    with pytest.raises(SegmentFormatError, match="checksum"):
        SnapshotStore.info(path, verify=True)
    assert cli_main(["snapshot", "load", str(path), "--verify"]) == 1
    assert cli_main(["snapshot", "info", str(path), "--verify"]) == 1


# ----------------------------------------------------------------------
# Out of core: Fig. 8(d)'s |G| axis past what the in-RAM build holds
# ----------------------------------------------------------------------
#: Builder RSS growth is bounded by one shard's working set, not by
#: |E|, so one fixed ceiling covers every stream size on the axis.
OOC_RSS_CEILING = 256 << 20


def _edge_stream(num_edges, num_nodes, seed=0x9E3779B9):
    """A deterministic LCG edge stream that is never materialised."""
    state = seed
    for _ in range(num_edges):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield f"n{(state >> 33) % num_nodes}", f"n{(state >> 3) % num_nodes}"


@pytest.mark.parametrize("factor", [1, 10, 30], ids=lambda f: f"{f}x")
def test_out_of_core_ingest_under_a_fixed_rss_ceiling(tmp_path, factor):
    num_edges = 1_000 * factor
    num_nodes = max(250, num_edges // 2)
    report = ingest_snapshot(
        _edge_stream(num_edges, num_nodes), tmp_path / "snap",
        num_shards=8, labeler=_labeler, budget_bytes=4 << 20,
    )
    assert report.on_disk_bytes > 0
    assert report.peak_rss_bytes < OOC_RSS_CEILING
    # The reload is the graph the in-memory build makes of the stream.
    reference = graph_from_edges(
        _edge_stream(num_edges, num_nodes), labeler=_labeler
    )
    got = SnapshotStore.load(tmp_path / "snap").graph
    assert (got.num_nodes, got.num_edges) == (report.nodes, report.edges)
    assert (got.num_nodes, got.num_edges) == (
        reference.num_nodes, reference.num_edges,
    )
    assert set(got.edges()) == set(reference.edges())
    assert got.label_index_stats() == reference.label_index_stats()
