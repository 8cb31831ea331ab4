"""Snapshot format 2: persisted boundary rows, lazy name-keyed tables.

A sharded snapshot directory holds, per shard, the flat int rows an
id-space evaluation needs (local -> global id row, bridge pairs), so a
reload attaches instead of rebuilding; everything keyed by node name is
derived on first name-based access.  The property below checks that a
reloaded graph is indistinguishable from the in-memory one over the
whole read API, for both producers of the format; the count-based tests
check that a load plus a direct match really does none of the old work;
the out-of-core test streams 1x/10x/30x edge counts through ingest under
one fixed RSS ceiling.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_pattern
from repro.cli import main as cli_main
from repro.engine import QueryEngine
from repro.graph import ANY, BoundedPattern, DataGraph
from repro.graph.compact import CompactGraph
from repro.graph.flatbuf import SegmentFormatError
from repro.graph.ingest import ingest_snapshot
from repro.graph.io import graph_from_edges
from repro.graph.snapshot import SnapshotStore
from repro.shard import ShardedGraph, make_partition
from repro.simulation import bounded_match, match
from repro.views.storage import ViewSet

LABELS = "ABC"


def _labeler(node):
    return (LABELS[int(node[1:]) % len(LABELS)],)


def _instance(seed, with_attrs):
    """Edge list over string node ids (ingest needs them), its reference
    dict graph built edge by edge (ingest carries no attributes), and a
    (bounded) query pair."""
    rng = random.Random(seed)
    num_nodes = rng.randint(3, 24)
    edges = [
        (f"n{rng.randrange(num_nodes)}", f"n{rng.randrange(num_nodes)}")
        for _ in range(rng.randint(3, 60))
    ]
    graph = DataGraph()
    for source, target in edges:
        for node in (source, target):
            if node not in graph:
                attrs = {"k": len(node)} if with_attrs else None
                graph.add_node(node, labels=_labeler(node), attrs=attrs)
        graph.add_edge(source, target)
    query = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
    bounded = BoundedPattern()
    for node in query.nodes():
        bounded.add_node(node, query.condition(node))
    for source, target in query.edges():
        bounded.add_edge(source, target, rng.choice([1, 2, ANY]))
    return rng, edges, graph, query, bounded


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


def assert_same_sharded_graph(got, want, reference):
    """``got`` equals ``want`` (and the dict ``reference``) on the whole
    read API, compared through node keys so it holds whatever local id
    order each producer chose."""
    assert (got.num_shards, got.num_nodes, got.num_edges, got.edge_cut) == (
        want.num_shards, want.num_nodes, want.num_edges, want.edge_cut,
    )
    assert got.strategy == want.strategy
    assert len(got) == reference.num_nodes
    assert set(got.nodes()) == set(reference.nodes()) == set(got.node_table)
    assert set(got.edges()) == set(reference.edges())
    for node in reference.nodes():
        assert node in got
        assert got.labels(node) == reference.labels(node)
        assert got.attrs(node) == reference.attrs(node)
        assert got.successors(node) == reference.successors(node)
        assert got.predecessors(node) == reference.predecessors(node)
        assert got.in_degree(node) == reference.in_degree(node)
        assert got.node_of(got.id_of(node)) == node
        assert got.node_table[got.id_of(node)] == node
        assert set(got.ghost_shards(node)) == set(want.ghost_shards(node))
        home, local = got.owner_id(node)
        assert home == want.owner_id(node)[0]
        assert got.shard(home).node_of(local) == node
    assert sorted(got.id_of(node) for node in reference.nodes()) == list(
        range(reference.num_nodes)
    )
    assert "missing" not in got
    for label in LABELS + "Z":
        assert sorted(got.nodes_with_label(label)) == sorted(
            reference.nodes_with_label(label)
        )
    assert got.label_index_stats() == want.label_index_stats()
    assert got.boundary_nodes == want.boundary_nodes
    assert set(got.partition.cross_edges) == set(want.partition.cross_edges)
    assert got.partition.assignment == want.partition.assignment
    for index in range(got.num_shards):
        assert got.own_count(index) == want.own_count(index)
        assert set(got.ghost_ids(index)) == set(want.ghost_ids(index))
        assert set(got.partition.nodes_of(index)) == set(want.partition.nodes_of(index))
        assert got.partition.ghosts_of(index) == want.partition.ghosts_of(index)
        row = got.global_row(index)
        shard = got.shard(index)
        assert len(row) == shard.num_nodes
        for local, global_id in enumerate(row):
            assert got.node_of(global_id) == shard.node_of(local)
        for node, ghost in got.ghost_ids(index).items():
            assert shard.node_of(ghost) == node
    assert _bridge_names(got) == _bridge_names(want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=1, max_value=4),
    producer=st.sampled_from(["save", "ingest"]),
)
def test_reloaded_sharded_graph_equals_in_memory(seed, shards, producer):
    rng, edges, graph, query, bounded = _instance(seed, producer == "save")
    with tempfile.TemporaryDirectory() as tmp:
        if producer == "save":
            strategy = rng.choice(["hash", "label", "bfs"])
            want = ShardedGraph(graph, make_partition(graph, shards, strategy))
            SnapshotStore.save(tmp, want, overwrite=True)
        else:
            want = ShardedGraph(graph, make_partition(graph, shards, "hash"))
            ingest_snapshot(
                iter(edges), tmp, num_shards=shards, budget_bytes=256,
                labeler=_labeler, overwrite=True,
            )
        got = SnapshotStore.load(tmp, verify=True).graph
        if producer == "save":
            # Same local id order on both sides: the rows are equal as
            # they stand, not just up to naming.
            for index in range(shards):
                assert got.global_row(index) == want.global_row(index)
                assert got.bridges(index) == want.bridges(index)
                assert got.ghost_ids(index) == want.ghost_ids(index)
        assert_same_sharded_graph(got, want, graph)
        for pattern, evaluate in ((query, match), (bounded, bounded_match)):
            assert (
                evaluate(pattern, got).edge_matches
                == evaluate(pattern, graph).edge_matches
            )

        # refreshed(): patch both with the same update batch.
        version = graph.version
        nodes = sorted(graph.nodes())
        source, target = rng.choice(nodes), rng.choice(nodes)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
        removable = sorted(graph.edges())
        graph.remove_edge(*rng.choice(removable))
        if rng.random() < 0.5:
            graph.add_node("n999", labels=_labeler("n999"))
            graph.add_edge(rng.choice(nodes), "n999")
        ops = graph.edge_changes_since(version)
        got2, want2 = got.refreshed(graph, ops), want.refreshed(graph, ops)
        assert got2.extends_token == got.snapshot_token
        assert_same_sharded_graph(got2, want2, graph)
        for node in nodes:
            assert got2.id_of(node) == got.id_of(node)
        for pattern, evaluate in ((query, match), (bounded, bounded_match)):
            assert (
                evaluate(pattern, got2).edge_matches
                == evaluate(pattern, graph).edge_matches
            )


# ----------------------------------------------------------------------
# Laziness, by counting
# ----------------------------------------------------------------------
@pytest.fixture
def ingested(tmp_path):
    rng = random.Random(11)
    edges = [
        (f"n{rng.randrange(400)}", f"n{rng.randrange(400)}") for _ in range(1500)
    ]
    ingest_snapshot(iter(edges), tmp_path / "snap", num_shards=4, labeler=_labeler)
    query = random_pattern(random.Random(2), 3, 2)
    return tmp_path / "snap", edges, query


def test_load_plus_direct_match_does_no_name_work(ingested, monkeypatch):
    path, edges, query = ingested
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
    assert sorted(p.suffix for p in Path(path).iterdir()) == [".json"] + [".seg"] * 8

    loaded = SnapshotStore.load(path)
    assert calls == {"id_of": 0, "node_of": 0}
    graph = loaded.graph
    derived = ("_home", "_ghost_ids", "_ghost_shards", "node_table", "partition")
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
    assert "partition" not in vars(graph)


# ----------------------------------------------------------------------
# info / verify cover the boundary rows
# ----------------------------------------------------------------------
def test_info_lists_boundary_rows_and_verify_checks_them(ingested, capsys):
    path, _, _ = ingested
    info = SnapshotStore.info(path, verify=True)
    graph = SnapshotStore.load(path).graph
    assert info["manifest"]["format"] == 2
    assert sorted(info["boundary"]) == [f"boundary-{i:03d}.seg" for i in range(4)]
    for index, (fname, row) in enumerate(sorted(info["boundary"].items())):
        assert fname in info["verified_segments"]
        assert row["rows"] == graph.shard(index).num_nodes
        assert row["bridge_pairs"] == len(graph.ghost_ids(index))
        assert row["bytes"] == info["files"][fname]

    assert cli_main(["snapshot", "info", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["boundary"] == info["boundary"]
    assert cli_main(["snapshot", "info", str(path), "--verify"]) == 0
    text = capsys.readouterr().out
    assert "snapshot (format 2)" in text
    assert text.count("boundary rows:") == 4 and text.count("[crc ok]") == 8

    # Flip one payload byte of a boundary segment: the cheap attach
    # still succeeds, every --verify surface refuses it.
    victim = Path(path) / "boundary-002.seg"
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
