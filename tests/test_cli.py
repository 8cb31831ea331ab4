"""Tests for the command-line interface and view-set serialization."""

import json

import pytest

from repro.cli import main
from repro.graph.io import write_graph, write_pattern
from repro.graph.pattern import BoundedPattern
from repro.graph.snapshot import SnapshotStore
from repro.views.io import read_viewset, write_viewset
from repro.views import ViewDefinition, ViewSet

from helpers import build_bounded, build_graph, build_pattern, matchjoin_metrics


class TestViewSetSerialization:
    def test_definition_round_trip(self, tmp_path):
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        path = tmp_path / "views.json"
        write_viewset(views, path)
        loaded = read_viewset(path)
        assert loaded.names() == ["V"]
        assert not loaded.is_materialized("V")

    def test_extension_round_trip(self, tmp_path):
        # A cached extension persists as a snapshot directory; the views
        # JSON keeps the definitions only.
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        views = ViewSet(
            [ViewDefinition("V", build_pattern({"a": "A", "b": "B"}, [("a", "b")]))]
        )
        views.materialize(g)
        write_viewset(views, tmp_path / "views.json")
        assert not read_viewset(tmp_path / "views.json").is_materialized("V")
        SnapshotStore.save(tmp_path / "snap", g, views=views)
        loaded = SnapshotStore.load(tmp_path / "snap").viewset()
        assert loaded.is_materialized("V")
        assert loaded.extension("V").pairs_of(("a", "b")) == {(1, 2)}

    def test_bounded_extension_keeps_distances(self, tmp_path):
        g = build_graph({1: "A", 2: "X", 3: "B"}, [(1, 2), (2, 3)])
        views = ViewSet(
            [ViewDefinition("V", build_bounded({"a": "A", "b": "B"}, [("a", "b", 2)]))]
        )
        views.materialize(g)
        SnapshotStore.save(tmp_path / "snap", g, views=views)
        back = SnapshotStore.load(tmp_path / "snap").viewset().extension("V")
        assert back.distance_of((1, 3)) == 2
        assert isinstance(back.definition.pattern, BoundedPattern)

    def test_file_carrying_extensions_refused(self, tmp_path, capsys):
        pattern = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        write_viewset(ViewSet([ViewDefinition("V", pattern)]), tmp_path / "v.json")
        doc = json.loads((tmp_path / "v.json").read_text())
        doc["extensions"] = [{"definition": doc["definitions"][0], "edge_matches": []}]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="snapshot save --views") as refused:
            read_viewset(path)
        assert str(path) in str(refused.value)
        write_pattern(pattern, tmp_path / "q.json")
        write_graph(build_graph({1: "A", 2: "B"}, [(1, 2)]), tmp_path / "g.json")
        rc = main([
            "query", "--query", str(tmp_path / "q.json"), "--views", str(path),
            "--graph", str(tmp_path / "g.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")


class TestCli:
    def test_generate_and_stats(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        rc = main([
            "generate", "--dataset", "synthetic", "--nodes", "200",
            "--edges", "500", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        assert rc == 0
        assert graph_path.exists() and views_path.exists()
        rc = main(["stats", "--graph", str(graph_path), "--views", str(views_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes: 200" in out

    def test_stats_json_format(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "150",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        capsys.readouterr()
        rc = main([
            "stats", "--graph", str(graph_path), "--views", str(views_path),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["nodes"] == 150
        assert sum(payload["label_histogram"].values()) >= 150
        assert payload["label_index"]["labels"] == len(payload["label_histogram"])
        assert payload["label_index"]["largest_bucket"] in payload["label_histogram"]
        assert payload["snapshot"]["nodes"] == 150
        assert payload["snapshot"]["token"] >= 1
        assert payload["views"]["cardinality"] == len(payload["views"]["materialized"])
        assert payload["views"]["snapshot_token"] == payload["snapshot"]["token"]
        assert 0 < payload["views"]["extension_fraction"]
        assert set(payload["memory"]["views"]) == set(payload["views"]["materialized"])

    def test_full_workflow(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        out_path = tmp_path / "result.json"

        main([
            "generate", "--dataset", "amazon", "--nodes", "800",
            "--edges", "2500", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        snap_path = tmp_path / "snap"
        rc = main([
            "snapshot", "save", "--graph", str(graph_path),
            "--views", str(views_path), "--out", str(snap_path),
        ])
        assert rc == 0

        # A query matching one of the cached view shapes (AV1).
        from repro.graph.conditions import P

        book4 = (P("rating") >= 4).with_label("Book")
        q = build_pattern({}, [])
        q.add_node("x", book4)
        q.add_node("y", book4)
        q.add_edge("x", "y")
        write_pattern(q, query_path)

        rc = main([
            "contain", "--query", str(query_path), "--views", str(views_path),
            "--strategy", "minimum",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contained: yes" in out

        with matchjoin_metrics() as count:
            rc = main([
                "query", "--query", str(query_path), "--views", str(views_path),
                "--graph", str(graph_path), "--out", str(out_path),
            ])
            assert rc == 0
            assert count("total", "ids") == 1
        result = json.loads(out_path.read_text())
        assert "x->y" in result
        capsys.readouterr()

        rc = main(["snapshot", "load", str(snap_path), "--query", str(query_path)])
        assert rc == 0
        pairs = sum(len(v) for v in result.values())
        assert f"query: {pairs} pairs via " in capsys.readouterr().out

    def test_query_out_sorts_mixed_node_keys(self, tmp_path, capsys):
        # Int and str node keys do not compare; the result table sorts
        # by repr, the order pretty() prints.
        graph = build_graph(
            {1: "A", "a": "A", 2: "B", "b": "B"},
            [(1, 2), ("a", "b"), (1, "b")],
        )
        pattern = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        views = ViewSet([ViewDefinition("V", pattern)])
        write_viewset(views, tmp_path / "v.json")
        write_graph(graph, tmp_path / "g.json")
        write_pattern(pattern, tmp_path / "q.json")
        out_path = tmp_path / "result.json"
        rc = main([
            "query", "--query", str(tmp_path / "q.json"),
            "--views", str(tmp_path / "v.json"), "--graph", str(tmp_path / "g.json"),
            "--out", str(out_path),
        ])
        assert rc == 0
        assert json.loads(out_path.read_text()) == {
            "x->y": [["a", "b"], [1, "b"], [1, 2]]
        }

    def test_query_out_refuses_more_than_one_query(self, tmp_path, capsys):
        pattern = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        write_viewset(ViewSet([ViewDefinition("V", pattern)]), tmp_path / "v.json")
        write_pattern(pattern, tmp_path / "q.json")
        q = str(tmp_path / "q.json")
        write_graph(build_graph({1: "A", 2: "B"}, [(1, 2)]), tmp_path / "g.json")
        rc = main([
            "query", "--query", q, q, "--views", str(tmp_path / "v.json"),
            "--graph", str(tmp_path / "g.json"), "--out", str(tmp_path / "result.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --out")
        assert not (tmp_path / "result.json").exists()

    def test_contain_reports_uncovered(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "100",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        q = build_pattern({"a": "zz-unknown", "b": "zz-unknown"}, [("a", "b")])
        write_pattern(q, query_path)
        rc = main(["contain", "--query", str(query_path), "--views", str(views_path)])
        assert rc == 1
        assert "uncovered" in capsys.readouterr().out

    def test_query_not_contained_errors(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        views_path = tmp_path / "v.json"
        query_path = tmp_path / "q.json"
        main([
            "generate", "--dataset", "synthetic", "--nodes", "100",
            "--edges", "300", "--out", str(graph_path),
            "--views", str(views_path),
        ])
        q = build_pattern({"a": "zz-unknown", "b": "zz-unknown"}, [("a", "b")])
        write_pattern(q, query_path)
        # Without the graph nothing could answer it: the parser refuses.
        with pytest.raises(SystemExit) as exited:
            main(["query", "--query", str(query_path), "--views", str(views_path)])
        assert exited.value.code == 2
        assert "--graph" in capsys.readouterr().err
        rc = main([
            "query", "--query", str(query_path), "--views", str(views_path),
            "--graph", str(graph_path),
        ])
        assert rc == 0
        assert "0 pairs via direct" in capsys.readouterr().out

    def test_query_requires_graph(self, tmp_path, capsys):
        # A views JSON holds definitions only, so without the graph no
        # contained query could be answered or planned honestly.
        pattern = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
        write_viewset(ViewSet([ViewDefinition("V", pattern)]), tmp_path / "v.json")
        write_pattern(pattern, tmp_path / "q.json")
        command = [
            "query", "--query", str(tmp_path / "q.json"), "--views", str(tmp_path / "v.json"),
        ]
        for extra in ([], ["--explain"]):
            with pytest.raises(SystemExit) as exited:
                main(command + extra)
            assert exited.value.code == 2
            err = capsys.readouterr().err
            assert "required: --graph" in err and "Traceback" not in err

    def test_materialize_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["materialize", "--graph", "g.json", "--views", "v.json"])
        assert exited.value.code == 2
        assert "invalid choice: 'materialize'" in capsys.readouterr().err
