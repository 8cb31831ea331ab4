"""Flat-buffer snapshots: lifecycle, attach, equivalence.

Covers the storage core of :mod:`repro.graph.flatbuf` and its
view-payload counterpart :mod:`repro.views.flatpack`:

* segment lifecycle -- a mapped segment file closes with its last
  reader, refresh chains share one base segment, and nothing ever
  appears in ``/dev/shm``;
* the two backings, an in-process ``bytes`` segment (every fresh
  snapshot's tables) and a segment file mapped back read-only;
* attach: a snapshot or a :class:`FlatExtension` saved and mapped back
  reads like the one saved, and a second load maps the same files
  (pickling any of them is refused: ``test_snapshot.py``);
* engine integration: maintenance re-stamps flat extension payloads.

Answers over mapped snapshots (MatchJoin included) are
``test_oracle_machine.py``'s.
"""

import gc
import os
import random

import pytest

from helpers import attached, random_labeled_graph, shm_segments
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import CompactGraph
from repro.graph.flatbuf import FlatStore, SegmentFormatError, verify_segment_file
from repro.graph.snapshot import SnapshotStore, live_directory
from repro.simulation import match
from repro.views.flatpack import FlatExtension
from repro.views.storage import ViewSet


def _sample_graph(seed=7, nodes=40, edges=120):
    return random_labeled_graph(random.Random(seed), nodes, edges)


def _saved_and_loaded(graph, directory):
    """``graph``'s snapshot saved under ``directory`` and mapped back."""
    SnapshotStore.save(directory, graph)
    return SnapshotStore.load(directory).graph


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_mapping_closes_on_last_reference_drop(self, tmp_path):
        # The file is the snapshot directory's: dropping the last reader
        # closes the mapping and leaves the file where it is.
        loaded = _saved_and_loaded(_sample_graph(), tmp_path / "snap")
        mapping = loaded.flat_store.segment._payload
        assert not mapping.closed
        del loaded
        gc.collect()
        assert mapping.closed
        assert os.path.exists(os.path.join(live_directory(tmp_path / "snap"), "graph.seg"))

    def test_refresh_chain_shares_base_segment(self):
        g = _sample_graph(seed=9)
        first = g.freeze()
        nodes = list(g.nodes())
        added = []
        for v in nodes[:3]:
            w = nodes[-1] if v != nodes[-1] else nodes[0]
            if not g.has_edge(v, w):
                added.append((v, w))
        assert added
        second = first.applied([("insert", v, w) for v, w in added])
        assert second is not first
        assert second.extends_token == first.snapshot_token
        # The batch rides the same segment as a patch overlay.
        assert second.flat_store is first.flat_store
        assert second._patch["succ"] and first._patch is None
        for v, w in added:
            assert second.has_edge(v, w)

    def test_share_is_idempotent(self):
        # ``perf/batch.py`` still imports the old name: it is the one
        # snapshot class, and sharing returns the snapshot itself.
        from repro.graph.flatbuf import SharedCompactGraph

        g = _sample_graph(seed=3)
        frozen = g.freeze()
        assert SharedCompactGraph is CompactGraph
        assert SharedCompactGraph.share(frozen) is frozen

    def test_no_dev_shm_leak_after_suite_of_drops(self):
        before = shm_segments()
        for seed in range(3):
            g = _sample_graph(seed=seed)
            frozen = g.freeze()
            attached(frozen)
            del frozen
        gc.collect()
        assert shm_segments() <= before


# ----------------------------------------------------------------------
# The in-process backing
# ----------------------------------------------------------------------
class TestBytesFallback:
    def test_bytes_backend_round_trip(self):
        g = _sample_graph(seed=5)
        frozen = g.freeze()
        assert frozen.flat_store.backend == "bytes"
        assert frozen.flat_store.on_disk_bytes == 0
        revived = attached(frozen)
        assert revived.flat_store.backend == "file"
        assert set(revived.nodes()) == set(g.nodes())
        assert set(revived.edges()) == set(g.edges())
        for v in g.nodes():
            assert revived.labels(v) == g.labels(v)

    def test_flat_store_tables_identical_across_backends(self, tmp_path):
        # A save writes the tables the snapshot holds, plus its node
        # keys and attrs (JSON tables only then).
        g = _sample_graph(seed=6)
        bytes_tables = g.freeze().flat_store.table_bytes()
        loaded = _saved_and_loaded(g, tmp_path / "snap")
        assert loaded.flat_store.backend == "file"
        file_tables = loaded.flat_store.table_bytes()
        assert file_tables.items() >= bytes_tables.items()
        assert set(file_tables) - set(bytes_tables) == {"nodes", "attrs"}


# ----------------------------------------------------------------------
# Attach semantics
# ----------------------------------------------------------------------
class TestAttach:
    def test_a_second_load_maps_the_same_segment_file(self, tmp_path):
        loaded = _saved_and_loaded(_sample_graph(seed=4), tmp_path / "snap")
        revived = SnapshotStore.load(tmp_path / "snap").graph
        # A second load maps the same segment file, not a copy of its
        # buffers.
        assert revived.flat_store.segment._path == loaded.flat_store.segment._path
        assert revived.flat_store.backend == "file"
        assert set(revived.nodes()) == set(loaded.nodes())
        for v in loaded.nodes():
            assert revived.successors(v) == loaded.successors(v)
            assert revived.attrs(v) == loaded.attrs(v)

    def test_flat_extension_pair_rows_match_edge_matches(self, tmp_path):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(80, 200, labels=labels, seed=1)
        checked = 0
        for loaded in (True, False):
            views = ViewSet(generate_views(labels, 5, seed=1))
            snapshot = graph.copy().freeze()
            views.materialize(snapshot)
            extensions = views.extensions()
            if loaded:
                SnapshotStore.save(tmp_path / "snap", snapshot, views=views)
                extensions = SnapshotStore.load(tmp_path / "snap").views
            for name, view in extensions.items():
                payload = view.compact
                assert isinstance(payload, FlatExtension)
                # One store in process, a mapped segment once loaded.
                assert payload.store.backend == ("file" if loaded else "bytes")
                decode = payload.nodes.__getitem__
                for edge in payload.edge_order:
                    src_row, tgt_row = payload.pair_rows(edge)
                    pairs = {
                        (decode(v), decode(w))
                        for v, w in zip(src_row, tgt_row)
                    }
                    assert pairs == views.extension(name).edge_matches[edge]
                    checked += 1
                with pytest.raises(KeyError):
                    payload.pair_rows(("no such", "view edge"))
        assert checked

    def test_attached_view_counts_without_decoding(self, tmp_path):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(60, 150, labels=labels, seed=2)
        views = ViewSet(generate_views(labels, 5, seed=2))
        views.materialize(graph.freeze())
        SnapshotStore.save(tmp_path / "snap", graph, views=views)
        revived = SnapshotStore.load(tmp_path / "snap").views
        assert any(view.is_empty for view in revived.values())
        assert not all(view.is_empty for view in revived.values())
        for name, twin in revived.items():
            counts = twin.num_pairs, twin.is_empty, twin.size
            assert dict.__len__(twin.edge_matches) == 0  # nothing decoded
            pairs = [p for found in twin.edge_matches.values() for p in found]
            nodes = {v for pair in pairs for v in pair}
            assert counts == (len(pairs), not pairs, len(nodes) + len(pairs))
            view = views.extension(name)
            assert counts == (view.num_pairs, view.is_empty, view.size)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    @pytest.fixture
    def workload(self):
        labels = tuple(f"l{i}" for i in range(5))
        graph = random_graph(100, 260, labels=labels, seed=21)
        views = ViewSet(generate_views(labels, 6, seed=21))
        queries = [query_from_views(views, 4, 6, seed=s) for s in range(3)]
        return graph, views, queries

    def test_maintenance_rebind_keeps_views_flat(self, workload):
        from repro.views.maintenance import Delta, IncrementalViewSet

        graph, views, queries = workload
        definitions = list(views)
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.attach_maintenance(tracker)
        engine.answer_batch(queries)
        catalog = engine.views
        flat_names = [
            name
            for name in catalog.names()
            if catalog.is_materialized(name)
            and isinstance(catalog.extension(name).compact, FlatExtension)
        ]
        assert flat_names
        nodes = list(tracker.graph.nodes())
        source = next(
            v for v in nodes if not tracker.graph.has_edge(v, nodes[0])
        )
        tracker.apply_delta(Delta().insert(source, nodes[0]))
        # Applied straight to the tracker: the next read rebinds the catalog.
        after = engine.answer_batch(queries)
        for query, result in zip(queries, after):
            assert (
                result.edge_matches
                == match(query, tracker.graph).edge_matches
            )
        snapshot = engine.snapshot()
        # Extensions were re-stamped/bound without losing their rows.
        restamped = 0
        for name in flat_names:
            if not catalog.is_materialized(name):
                continue
            view = catalog.extension(name)
            if view.compact.token == snapshot.snapshot_token:
                assert isinstance(view.compact, FlatExtension)
                assert view.compact.num_pairs == view.num_pairs
                restamped += 1
        assert restamped


# ----------------------------------------------------------------------
# A snapshot mapped back from its file (a fresh one's in-process tables
# are the property in test_compact_backend.py; answers over mapped
# snapshots are test_oracle_machine.py's)
# ----------------------------------------------------------------------
class TestMappedSnapshot:
    def test_freeze_uses_file_backend(self, tmp_path):
        g = _sample_graph(seed=31)
        shared = _saved_and_loaded(g, tmp_path / "snap")
        assert shared.flat_store.backend == "file"

    def test_reload_round_trip_equivalence(self, tmp_path):
        # A loaded snapshot saved and loaded again reads the same.
        g = _sample_graph(seed=32)
        shared = _saved_and_loaded(g, tmp_path / "snap")
        revived = attached(shared)
        assert set(revived.nodes()) == set(g.nodes())
        assert set(revived.edges()) == set(g.edges())
        for v in g.nodes():
            assert revived.labels(v) == g.labels(v)
            assert revived.successors(v) == shared.successors(v)
            assert revived.attrs(v) == g.attrs(v)

    def test_no_leak_after_drop(self, tmp_path):
        before = shm_segments()
        g = _sample_graph(seed=34)
        shared = _saved_and_loaded(g, tmp_path / "snap")
        shared.edge_columns()
        del shared
        gc.collect()
        assert shm_segments() <= before
        # Nothing is written anywhere but the snapshot directory.
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]


# ----------------------------------------------------------------------
# File backend: on-disk format validation
# ----------------------------------------------------------------------
# <8sIIQIIQ header: magic @0, version @8, flags @12, nbytes @16,
# payload CRC @24, directory CRC @28, directory length @32; payload @40.
_PAYLOAD_OFFSET = 40


def _saved_store(tmp_path):
    from array import array

    store = FlatStore.pack(
        arrays={"xs": array("q", range(64)), "empty": array("q", [])},
        docs={"tag": "hello"},
    )
    path = tmp_path / "unit.seg"
    store.save(path)
    return path


def _corrupted_copy(path, offset, value=None):
    data = bytearray(path.read_bytes())
    data[offset] = data[offset] ^ 0xFF if value is None else value
    target = path.with_name(f"corrupt-{offset}-{path.name}")
    target.write_bytes(bytes(data))
    return target


class TestFileBackend:
    def test_save_open_round_trip(self, tmp_path):
        path = _saved_store(tmp_path)
        reopened = FlatStore.open(path, verify=True)
        assert reopened.backend == "file"
        assert list(reopened.ints("xs")) == list(range(64))
        assert list(reopened.ints("empty")) == []
        assert reopened.obj("tag") == "hello"
        assert reopened.on_disk_bytes == path.stat().st_size
        assert verify_segment_file(path) > 0

    def test_bad_magic_rejected(self, tmp_path):
        bad = _corrupted_copy(_saved_store(tmp_path), 0)
        with pytest.raises(SegmentFormatError, match="magic"):
            FlatStore.open(bad)

    def test_wrong_version_rejected(self, tmp_path):
        bad = _corrupted_copy(_saved_store(tmp_path), 8, value=99)
        with pytest.raises(SegmentFormatError, match="version"):
            FlatStore.open(bad)

    def test_payload_corruption_detected(self, tmp_path):
        bad = _corrupted_copy(_saved_store(tmp_path), _PAYLOAD_OFFSET + 8)
        with pytest.raises(SegmentFormatError):
            verify_segment_file(bad)
        with pytest.raises(SegmentFormatError):
            FlatStore.open(bad, verify=True)

    def test_directory_corruption_detected(self, tmp_path):
        path = _saved_store(tmp_path)
        # The JSON table directory is the file's trailer.
        bad = _corrupted_copy(path, path.stat().st_size - 1)
        with pytest.raises(SegmentFormatError):
            FlatStore.open(bad)

    def test_truncated_file_rejected(self, tmp_path):
        path = _saved_store(tmp_path)
        truncated = path.with_name("truncated.seg")
        truncated.write_bytes(path.read_bytes()[:24])
        with pytest.raises(SegmentFormatError):
            FlatStore.open(truncated)

    def test_truncated_payload_rejected(self, tmp_path):
        path = _saved_store(tmp_path)
        truncated = path.with_name("short.seg")
        truncated.write_bytes(path.read_bytes()[: _PAYLOAD_OFFSET + 16])
        with pytest.raises(SegmentFormatError):
            FlatStore.open(truncated)


# ----------------------------------------------------------------------
# FlatStore unit coverage
# ----------------------------------------------------------------------
class TestFlatStore:
    def test_pack_and_read_back(self):
        from array import array

        arrays = {"a": array("q", [1, 2, 3]), "b": array("q", [])}
        docs = {"meta": {"k": "v"}}
        store = FlatStore.pack(arrays=arrays, docs=docs)
        assert list(store.ints("a")) == [1, 2, 3]
        assert list(store.ints("b")) == []
        assert store.obj("meta") == {"k": "v"}
        assert store.obj("meta") is store.obj("meta")  # memoized
        sizes = store.table_bytes()
        assert sizes["a"] == 3 * 8
        assert sizes["b"] == 0
        assert store.total_bytes >= sum(sizes.values())
