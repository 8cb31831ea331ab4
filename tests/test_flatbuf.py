"""Flat-buffer shared-memory snapshots: lifecycle, attach, equivalence.

Covers the zero-copy storage core of :mod:`repro.graph.flatbuf` and its
view-payload counterpart :mod:`repro.views.flatpack`:

* segment lifecycle -- refcounted unlink on the last reference drop,
  survival across ``refreshed`` chains (one base segment per chain), no
  leaked ``/dev/shm`` entries after process-pool round trips;
* the plain-``bytes`` fallback behind ``REPRO_FLAT_BACKEND=bytes``;
* attach-not-unpickle shipping: a :class:`SharedCompactGraph` or a
  :class:`FlatExtension` pickles to a segment handle and reconstructs
  with identical read results, in-process and across a process pool;
* engine/server integration: shared freezing for process batches, ship
  telemetry in ``ExecutionStats`` and ``QueryEngine.ship_stats()``.
"""

import gc
import glob
import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from helpers import build_graph, random_labeled_graph
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import DataGraph
from repro.graph.flatbuf import (
    _have_shm,
    BACKEND_ENV,
    FILE_DIR_ENV,
    SEGMENT_PREFIX,
    FlatStore,
    SegmentFormatError,
    SharedCompactGraph,
    live_segment_names,
    verify_segment_file,
)
from repro.simulation import match
from repro.simulation.array_engine import ARRAY_MIN_EDGES
from repro.views.flatpack import FlatExtension
from repro.views.storage import ViewSet


def _shm_entries():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _sample_graph(seed=7, nodes=40, edges=120):
    return random_labeled_graph(random.Random(seed), nodes, edges)


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_unlink_on_last_reference_drop(self):
        g = _sample_graph()
        shared = g.freeze(shared=True)
        assert isinstance(shared, SharedCompactGraph)
        name = shared.flat_store.segment.name
        assert name in live_segment_names()
        del shared
        g._frozen = None  # drop the freeze cache's reference too
        gc.collect()
        assert name not in live_segment_names()

    def test_refresh_chain_shares_base_segment(self):
        g = _sample_graph(seed=9)
        first = g.freeze(shared=True)
        nodes = list(g.nodes())
        added = []
        for v in nodes[:3]:
            w = nodes[-1] if v != nodes[-1] else nodes[0]
            if not g.has_edge(v, w):
                g.add_edge(v, w)
                added.append((v, w))
        assert added
        second = g.freeze()
        assert isinstance(second, SharedCompactGraph)
        assert second is not first
        assert second.extends_token == first.snapshot_token
        # The refresh rides the same segment as a patch overlay.
        assert second.flat_store is first.flat_store
        for v, w in added:
            assert second.has_edge(v, w)
        # One live segment for the whole chain; dropping every
        # generation unlinks it.
        name = first.flat_store.segment.name
        del first, second
        g._frozen = None
        gc.collect()
        assert name not in live_segment_names()

    def test_share_is_idempotent(self):
        g = _sample_graph(seed=3)
        shared = g.freeze(shared=True)
        assert SharedCompactGraph.share(shared) is shared
        assert g.freeze(shared=True) is shared

    def test_no_dev_shm_leak_after_suite_of_drops(self):
        before = set(_shm_entries())
        for seed in range(3):
            g = _sample_graph(seed=seed)
            shared = g.freeze(shared=True)
            pickle.loads(pickle.dumps(shared))
            del shared
            g._frozen = None
        gc.collect()
        assert set(_shm_entries()) <= before


# ----------------------------------------------------------------------
# Bytes fallback
# ----------------------------------------------------------------------
class TestBytesFallback:
    def test_bytes_backend_round_trip(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bytes")
        g = _sample_graph(seed=5)
        shared = g.freeze(shared=True)
        assert shared.flat_store.backend == "bytes"
        # No named segments exist, so nothing can leak.
        assert shared.flat_store.segment.name not in live_segment_names()
        revived = pickle.loads(pickle.dumps(shared))
        assert set(revived.nodes()) == set(g.nodes())
        assert set(revived.edges()) == set(g.edges())
        for v in g.nodes():
            assert revived.labels(v) == g.labels(v)

    def test_flat_store_tables_identical_across_backends(self, monkeypatch):
        g = _sample_graph(seed=6)
        shm_tables = g.freeze(shared=True).flat_table_bytes()
        g2 = _sample_graph(seed=6)
        monkeypatch.setenv(BACKEND_ENV, "bytes")
        bytes_tables = g2.freeze(shared=True).flat_table_bytes()
        assert shm_tables == bytes_tables


# ----------------------------------------------------------------------
# Attach semantics
# ----------------------------------------------------------------------
class TestAttach:
    def test_snapshot_pickle_is_a_handle(self):
        g = _sample_graph(seed=8, nodes=300, edges=900)
        plain = pickle.dumps(g.freeze())
        shared = pickle.dumps(g.freeze(shared=True))
        assert len(shared) < len(plain) / 5

    def test_in_process_attach_reuses_store(self):
        g = _sample_graph(seed=4)
        shared = g.freeze(shared=True)
        revived = pickle.loads(pickle.dumps(shared))
        # Same process: the pickle resolves to the same mapped segment,
        # not a copy of the buffers.
        assert revived.flat_store.segment is shared.flat_store.segment
        assert set(revived.nodes()) == set(shared.nodes())
        for v in g.nodes():
            assert revived.successors(v) == shared.successors(v)
            assert revived.attrs(v) == shared.attrs(v)

    def test_flat_extension_pair_rows_match_edge_matches(self):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(80, 200, labels=labels, seed=1)
        checked = 0
        for shared in (True, False):
            segments_before = set(live_segment_names())
            views = ViewSet(generate_views(labels, 5, seed=1))
            views.materialize(graph.copy().freeze(shared=shared))
            for name in views.names():
                if not views.is_materialized(name):
                    continue
                view = views.extension(name)
                payload = view.compact
                assert isinstance(payload, FlatExtension)
                # Packed beside a shared snapshot (ships as a handle);
                # plain in-process columns otherwise.
                assert (payload.store is not None) == shared
                assert payload.ships_as_handle == shared
                decode = payload.nodes.__getitem__
                for edge in payload.edge_order:
                    src_row, tgt_row = payload.pair_rows(edge)
                    pairs = {
                        (decode(v), decode(w))
                        for v, w in zip(src_row, tgt_row)
                    }
                    assert pairs == view.edge_matches[edge]
                    checked += 1
                with pytest.raises(KeyError):
                    payload.pair_rows(("no such", "view edge"))
            if not shared:
                # In-process rows create no shm/file segment at all.
                assert set(live_segment_names()) <= segments_before
        assert checked

    def test_flat_extension_pickle_round_trip(self):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(60, 150, labels=labels, seed=2)
        shared = graph.freeze(shared=True)
        views = ViewSet(generate_views(labels, 5, seed=2))
        views.materialize(shared)
        revived = pickle.loads(pickle.dumps(views.extensions()))
        for name, view in views.extensions().items():
            twin = revived[name]
            assert twin.edge_matches == view.edge_matches
            assert isinstance(twin.compact, FlatExtension)
            assert twin.compact.token == view.compact.token


# ----------------------------------------------------------------------
# Cross-process round trips (the actual zero-copy path)
# ----------------------------------------------------------------------
def _remote_probe(shared):
    return (
        sorted(shared.nodes(), key=repr)[:5],
        shared.num_edges,
        type(shared).__name__,
    )


def _remote_match(args):
    query, views_blob = args
    views = pickle.loads(views_blob)
    containment = contains(query, views)
    return match_join(query, containment, views)


class TestCrossProcess:
    def test_worker_attaches_snapshot(self):
        g = _sample_graph(seed=12, nodes=120, edges=360)
        shared = g.freeze(shared=True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            nodes, num_edges, typename = pool.submit(
                _remote_probe, shared
            ).result()
        assert typename == "SharedCompactGraph"
        assert num_edges == shared.num_edges
        assert nodes == sorted(shared.nodes(), key=repr)[:5]

    def test_matchjoin_equal_across_process_boundary(self):
        labels = tuple(f"l{i}" for i in range(5))
        graph = random_graph(120, 320, labels=labels, seed=13)
        shared = graph.freeze(shared=True)
        views = ViewSet(generate_views(labels, 6, seed=13))
        views.materialize(shared)
        query = query_from_views(views, 4, 6, seed=13)
        containment = contains(query, views)
        local = match_join(query, containment, views)
        views_blob = pickle.dumps(views)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_remote_match, (query, views_blob)).result()
        assert remote == local
        assert remote.edge_matches == match(query, graph).edge_matches

    def test_no_segment_leak_after_pool(self):
        before = set(_shm_entries())
        g = _sample_graph(seed=14, nodes=80, edges=240)
        shared = g.freeze(shared=True)
        with ProcessPoolExecutor(max_workers=2) as pool:
            for future in [
                pool.submit(_remote_probe, shared) for _ in range(4)
            ]:
                future.result()
        name = shared.flat_store.segment.name
        del shared
        g._frozen = None
        gc.collect()
        assert name not in live_segment_names()
        assert set(_shm_entries()) <= before


# ----------------------------------------------------------------------
# Engine + ship telemetry
# ----------------------------------------------------------------------
class TestEngineIntegration:
    @pytest.fixture
    def workload(self):
        labels = tuple(f"l{i}" for i in range(5))
        graph = random_graph(100, 260, labels=labels, seed=21)
        views = ViewSet(generate_views(labels, 6, seed=21))
        queries = [query_from_views(views, 4, 6, seed=s) for s in range(3)]
        return graph, views, queries

    def test_process_engine_ships_flat_snapshots(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(
            views, graph=graph, executor="process", workers=2
        )
        assert isinstance(engine.snapshot(), SharedCompactGraph)
        results = engine.answer_batch(queries)
        serial = QueryEngine(
            ViewSet(list(views)), graph=graph
        ).answer_batch(queries)
        assert results == serial
        shipped = [r.stats for r in results if r.stats.ship_bytes]
        assert shipped, "at least one result must carry ship telemetry"
        assert all(s.ship_seconds >= 0.0 for s in shipped)
        totals = engine.ship_stats()
        assert totals["batches"] >= 1
        assert totals["bytes"] >= max(s.ship_bytes for s in shipped)
        # Direct plans, plain and bounded, above the array kernels' size
        # cut: a worker's answer comes back pickled, equal to serial's.
        labels = tuple(f"l{i}" for i in range(5))
        big = random_graph(900, 3 * ARRAY_MIN_EDGES, labels=labels, seed=22)
        direct = queries + [queries[0].bounded(default=2)]
        pooled = QueryEngine(ViewSet(), graph=big, executor="process", workers=2)
        results = pooled.answer_batch(direct)
        assert {(r.stats.strategy, r.stats.executor) for r in results} == {
            ("direct", "process")
        }
        assert any(results)
        assert pooled.snapshot().num_edges >= ARRAY_MIN_EDGES
        assert results == QueryEngine(ViewSet(), graph=big).answer_batch(direct)

    def test_serial_engine_ships_nothing(self, workload):
        graph, views, queries = workload
        engine = QueryEngine(views, graph=graph)
        results = engine.answer_batch(queries)
        assert all(r.stats.ship_bytes == 0 for r in results)
        assert engine.ship_stats() == {
            "batches": 0,
            "bytes": 0,
            "seconds": 0.0,
        }

    def test_maintenance_rebind_keeps_views_flat(self, workload):
        from repro.views.maintenance import IncrementalViewSet

        graph, views, queries = workload
        definitions = list(views)
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(
            ViewSet(definitions),
            graph=graph,
            executor="process",
            workers=2,
        )
        engine.attach_maintenance(tracker)
        before = engine.answer_batch(queries)
        catalog = engine.views
        flat_names = [
            name
            for name in catalog.names()
            if catalog.is_materialized(name)
            and catalog.extension(name).compact.store is not None
        ]
        assert flat_names
        nodes = list(tracker.graph.nodes())
        source = next(
            v for v in nodes if not tracker.graph.has_edge(v, nodes[0])
        )
        tracker.insert_edge(source, nodes[0])
        # The refresh is lazy: the next read rebinds the catalog.
        after = engine.answer_batch(queries)
        for query, result in zip(queries, after):
            assert (
                result.edge_matches
                == match(query, tracker.graph).edge_matches
            )
        snapshot = engine.snapshot()
        assert isinstance(snapshot, SharedCompactGraph)
        # Extensions were re-stamped/bound without losing flatness.
        restamped = 0
        for name in flat_names:
            if not catalog.is_materialized(name):
                continue
            view = catalog.extension(name)
            if view.compact.token == snapshot.snapshot_token:
                assert view.compact.store is not None
                restamped += 1
        assert restamped

    def test_per_batch_process_executor_ships_handles(self, workload):
        """Sharedness is decided where it is observed: an engine built
        serial upgrades its snapshot (token-preserving) the first time
        a batch goes to a process pool -- before materializing for it --
        so that batch ships what a process-built engine's does."""
        graph, views, queries = workload
        late = QueryEngine(ViewSet(list(views)), graph=graph)
        plain = late.snapshot()
        assert not isinstance(plain, SharedCompactGraph)
        results = late.answer_batch(queries, executor="process", workers=2)
        shared = late.snapshot()
        assert isinstance(shared, SharedCompactGraph)
        assert shared.snapshot_token == plain.snapshot_token
        built = QueryEngine(
            ViewSet(list(views)), graph=graph, executor="process", workers=2
        )
        assert results == built.answer_batch(queries)
        assert late.ship_stats()["batches"] == 1
        assert late.ship_stats()["bytes"] == built.ship_stats()["bytes"]
        # Handles, not the pickled graph the batch used to carry.
        assert late.ship_stats()["bytes"] < len(pickle.dumps(plain))


# ----------------------------------------------------------------------
# Backend matrix: every suite invariant must hold on every backend
# ----------------------------------------------------------------------
BACKENDS = ("shm", "bytes", "file")


@pytest.fixture(params=BACKENDS)
def flat_backend(request, monkeypatch, tmp_path):
    backend = request.param
    if backend == "shm" and not _have_shm():
        pytest.skip("shared memory unavailable on this platform")
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setenv(BACKEND_ENV, backend)
    monkeypatch.setenv(FILE_DIR_ENV, str(spool))
    return backend


class TestBackendMatrix:
    def test_freeze_uses_selected_backend(self, flat_backend):
        g = _sample_graph(seed=31)
        shared = g.freeze(shared=True)
        assert shared.flat_store.backend == flat_backend

    def test_pickle_round_trip_equivalence(self, flat_backend):
        g = _sample_graph(seed=32)
        shared = g.freeze(shared=True)
        revived = pickle.loads(pickle.dumps(shared))
        assert set(revived.nodes()) == set(g.nodes())
        assert set(revived.edges()) == set(g.edges())
        for v in g.nodes():
            assert revived.labels(v) == g.labels(v)
            assert revived.successors(v) == shared.successors(v)
            assert revived.attrs(v) == g.attrs(v)

    def test_matchjoin_equal_on_every_backend(self, flat_backend):
        labels = tuple(f"l{i}" for i in range(4))
        graph = random_graph(60, 150, labels=labels, seed=33)
        shared = graph.freeze(shared=True)
        views = ViewSet(generate_views(labels, 5, seed=33))
        views.materialize(shared)
        query = query_from_views(views, 4, 6, seed=33)
        containment = contains(query, views)
        result = match_join(query, containment, views)
        assert result.edge_matches == match(query, graph).edge_matches

    def test_no_leak_after_drop(self, flat_backend, tmp_path):
        g = _sample_graph(seed=34)
        shared = g.freeze(shared=True)
        name = shared.flat_store.segment.name
        del shared
        g._frozen = None
        gc.collect()
        assert name not in live_segment_names()
        # The file backend spools into REPRO_FLAT_DIR; the owner's drop
        # must delete the spool file, leaving the directory empty.
        assert not list((tmp_path / "spool").glob("*.seg"))


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
        blobs={"tag": pickle.dumps("hello")},
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
        # The pickled table directory is the file's trailer.
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
        blobs = {"meta": pickle.dumps({"k": "v"})}
        store = FlatStore.pack(arrays=arrays, blobs=blobs)
        assert list(store.ints("a")) == [1, 2, 3]
        assert list(store.ints("b")) == []
        assert store.obj("meta") == {"k": "v"}
        assert store.obj("meta") is store.obj("meta")  # memoized
        sizes = store.table_bytes()
        assert sizes["a"] == 3 * 8
        assert sizes["b"] == 0
        assert store.total_bytes >= sum(sizes.values())

    def test_store_survives_pickle(self):
        from array import array

        store = FlatStore.pack(
            arrays={"xs": array("q", range(10))},
            blobs={"tag": pickle.dumps("hello")},
        )
        revived = pickle.loads(pickle.dumps(store))
        assert list(revived.ints("xs")) == list(range(10))
        assert revived.obj("tag") == "hello"
