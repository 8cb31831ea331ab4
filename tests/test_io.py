"""Tests for graph/pattern serialization and the SNAP reader."""

import json

import pytest

from repro.graph import ANY, BoundedPattern, DataGraph, Label, P, Pattern
from repro.graph.io import (
    condition_from_json,
    condition_to_json,
    graph_from_edges,
    graph_from_json,
    graph_to_json,
    pattern_from_json,
    pattern_to_json,
    read_graph,
    read_pattern,
    read_snap_edges,
    write_graph,
    write_pattern,
)
from repro.graph.conditions import TrueCondition


class TestConditionRoundTrip:
    @pytest.mark.parametrize(
        "cond",
        [
            TrueCondition(),
            Label("DBA"),
            P("rate") >= 4,
            ((P("C") == "Music") & (P("V") >= 10_000)).with_label("video"),
        ],
        ids=["true", "label", "atom", "conjunction"],
    )
    def test_round_trip(self, cond):
        doc = condition_to_json(cond)
        json.dumps(doc)  # must be JSON-serializable
        assert condition_from_json(doc) == cond

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            condition_from_json({"kind": "mystery"})


class TestGraphRoundTrip:
    def make(self):
        g = DataGraph()
        g.add_node("x", labels=["A", "B"], attrs={"year": 2005, "venue": "ICDE"})
        g.add_node("y", labels="C")
        g.add_edge("x", "y")
        g.add_edge("y", "x")
        return g

    def test_json_round_trip(self):
        g = self.make()
        doc = graph_to_json(g)
        json.dumps(doc)
        h = graph_from_json(doc)
        assert set(h.edges()) == set(g.edges())
        assert h.labels("x") == g.labels("x")
        assert h.attrs("x") == g.attrs("x")

    def test_file_round_trip(self, tmp_path):
        g = self.make()
        path = tmp_path / "graph.json"
        write_graph(g, path)
        h = read_graph(path)
        assert set(h.edges()) == set(g.edges())

    @pytest.mark.parametrize("value", [(1, 2), [1, 2], object()], ids=["tuple", "list", "object"])
    def test_attribute_json_cannot_carry_is_refused(self, tmp_path, value):
        # A tuple would come back a list: the graph file refuses what a
        # snapshot save refuses, with the same message.
        g = self.make()
        g.add_node("y", attrs={"pos": value})
        message = f"node 'y': attribute 'pos' = {value!r} is not str, int, float, bool or None"
        with pytest.raises(ValueError) as refused:
            write_graph(g, tmp_path / "graph.json")
        assert str(refused.value) == message
        assert not (tmp_path / "graph.json").exists()
        from repro.graph.compact import SnapshotError
        from repro.graph.snapshot import SnapshotStore

        with pytest.raises(SnapshotError) as saved:
            SnapshotStore.save(tmp_path / "snap", g)
        assert str(saved.value) == message

    @pytest.mark.parametrize("value", [[1, 2], {"x": 1}], ids=["list", "object"])
    def test_attribute_json_cannot_carry_is_refused_on_load(self, tmp_path, value):
        # A file written elsewhere: loading it refuses what writing the
        # loaded graph back (or saving its snapshot) would refuse.
        doc = {"nodes": [{"id": "y", "labels": ["A"], "attrs": {"pos": value}}], "edges": []}
        (tmp_path / "graph.json").write_text(json.dumps(doc))
        message = f"node 'y': attribute 'pos' = {value!r} is not str, int, float, bool or None"
        with pytest.raises(ValueError) as refused:
            read_graph(tmp_path / "graph.json")
        assert str(refused.value) == message
        with pytest.raises(ValueError, match="is not str, int"):
            graph_from_json(doc)


class TestPatternRoundTrip:
    def test_plain_pattern(self, tmp_path):
        q = Pattern()
        q.add_node("a", "A")
        q.add_node("b", (P("rate") >= 4).with_label("video"))
        q.add_edge("a", "b")
        path = tmp_path / "q.json"
        write_pattern(q, path)
        r = read_pattern(path)
        assert not isinstance(r, BoundedPattern)
        assert set(r.edges()) == {("a", "b")}
        assert r.condition("b") == q.condition("b")

    def test_bounded_pattern(self, tmp_path):
        q = BoundedPattern()
        q.add_node("a", "A")
        q.add_node("b", "B")
        q.add_edge("a", "b", 3)
        q.add_node("c", "C")
        q.add_edge("b", "c", ANY)
        path = tmp_path / "qb.json"
        write_pattern(q, path)
        r = read_pattern(path)
        assert isinstance(r, BoundedPattern)
        assert r.bound(("a", "b")) == 3
        assert r.bound(("b", "c")) is ANY

    def test_tuple_node_ids_round_trip(self, tmp_path):
        # query_from_views names nodes (copy, node) -- and stacking
        # generators can nest further.  JSON turns tuples into lists,
        # and the reader must restore them recursively.
        q = Pattern()
        q.add_node(("c0", "a"), "A")
        q.add_node(("c0", ("c1", "b")), "B")
        q.add_edge(("c0", "a"), ("c0", ("c1", "b")))
        path = tmp_path / "qt.json"
        write_pattern(q, path)
        r = read_pattern(path)
        assert set(r.edges()) == {(("c0", "a"), ("c0", ("c1", "b")))}

        qb = BoundedPattern()
        qb.add_node(("c0", "a"), "A")
        qb.add_node(("c0", "b"), "B")
        qb.add_edge(("c0", "a"), ("c0", "b"), 2)
        write_pattern(qb, path)
        rb = read_pattern(path)
        assert isinstance(rb, BoundedPattern)
        assert rb.bound(((("c0", "a")), ("c0", "b"))) == 2


class TestSnapReader:
    def test_reads_edge_list(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph\n"
            "# FromNodeId\tToNodeId\n"
            "0\t1\n"
            "0\t2\n"
            "1\t2\n"
        )
        edges = read_snap_edges(path)
        # streaming: a generator, not a list (multi-GB files must flow)
        assert iter(edges) is edges
        assert list(edges) == [("0", "1"), ("0", "2"), ("1", "2")]

    def test_limit(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        assert len(list(read_snap_edges(path, limit=2))) == 2

    def test_max_edges_guard(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        assert len(list(read_snap_edges(path, max_edges=3))) == 3
        with pytest.raises(ValueError, match="max_edges"):
            list(read_snap_edges(path, max_edges=2))

    def test_graph_from_edges_with_labeler(self):
        edges = [("0", "1"), ("1", "2")]
        g = graph_from_edges(edges, labeler=lambda n: "even" if int(n) % 2 == 0 else "odd")
        assert g.num_edges == 2
        assert g.labels("0") == frozenset({"even"})
        assert g.labels("1") == frozenset({"odd"})

    def test_graph_from_edges_streams_generators(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        g = graph_from_edges(read_snap_edges(path))
        assert g.num_edges == 3

    def test_graph_from_edges_max_edges_guard(self):
        edges = [("0", "1"), ("1", "2"), ("2", "3")]
        assert graph_from_edges(edges, max_edges=3).num_edges == 3
        with pytest.raises(ValueError, match="repro ingest"):
            graph_from_edges(edges, max_edges=2)
