"""Persistent snapshot directories: save/load mmap-backed graph state.

:class:`SnapshotStore` gives a frozen snapshot a durable sibling:
:meth:`SnapshotStore.save` writes the tables the snapshot already holds
(:meth:`CompactGraph.saved_store`: the graph it was given is left as it
was) as a *snapshot directory* of sealed segment files (see
:mod:`repro.graph.flatbuf` for the on-disk format) plus a
``manifest.json``, and :meth:`SnapshotStore.load` maps
it back read-only via ``mmap`` -- no edge list is re-read, no CSR is
rebuilt, and the lazy decode structures mean a reload touches only the
pages a query actually visits.

Directory layout (format 2)::

    snapshot/
      manifest.json            # kind, counts, tokens, file map (written last)
      graph.seg                # compact: the snapshot's flat segment
      patch.pkl                # compact: refreshed() overlay (optional)
      shard-000.seg ...        # sharded: one sealed segment per shard
      boundary-000.seg ...     # sharded: per-shard boundary rows (int tables)
      patch-000.pkl ...        # sharded: per-shard patch overlays (optional)
      view-000.seg/.pkl ...    # FlatExtension view packs (compact snapshots)
      view-000.view ...        # plain pickled views (sharded snapshots)

The manifest is written *last*, so a directory without one is never
mistaken for a valid snapshot (a crashed save leaves garbage, not a
half-snapshot).  Every file is fsynced before the manifest is renamed
into place and the directory after it, so a manifest that survives a
crash names only files that survived it too.  Provenance survives the
round trip: ``snapshot_token`` / ``extends_token`` and any
``refreshed()`` patch overlay are persisted verbatim, so a reloaded
snapshot still rebinds extensions and engages the MatchJoin id-space
fast paths exactly like its in-memory origin.

Sharded snapshots reload exactly as lazily: the composite bookkeeping
an id-space evaluation needs -- each shard's local -> global id row and
the (owner-local id, ghost id) bridge pairs per holder -- is persisted
as flat int rows (``boundary-NNN.seg``, see
:func:`repro.shard.sharded.boundary_stores`), so a load is the manifest
plus one ``mmap`` attach per file.  Everything keyed by node *name*
(home map, ghost maps, the decode table, the partition with its cut
edges, cross-shard predecessors) is derived from the shards on first
name-based access.  Format 1 directories, which rebuilt all of that on
every load, are refused: re-create them with ``repro ingest`` or
``repro snapshot save``.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import time
from typing import Any, Dict, Iterable, List, Sequence

from repro.graph.compact import CompactGraph, _attach
from repro.graph.flatbuf import FlatStore, _read_segment_header, verify_segment_file

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
SNAPSHOT_FORMAT = 2


class SnapshotError(ValueError):
    """A snapshot directory is missing, malformed, or would be
    clobbered without ``overwrite=True``."""


# ----------------------------------------------------------------------
# LoadedSnapshot
# ----------------------------------------------------------------------
class LoadedSnapshot:
    """The product of :meth:`SnapshotStore.load`.

    ``graph`` is a :class:`~repro.graph.compact.CompactGraph` or
    :class:`~repro.shard.sharded.ShardedGraph` whose columns are
    mmap-backed; ``views`` maps view names to reloaded materialized
    views.  :meth:`viewset` assembles both into a ready
    :class:`~repro.views.storage.ViewSet`.
    """

    __slots__ = ("path", "graph", "views", "manifest")

    def __init__(self, path: str, graph, views: Dict[str, Any], manifest: dict):
        self.path = path
        self.graph = graph
        self.views = views
        self.manifest = manifest

    def viewset(self):
        """A ViewSet holding the persisted definitions and extensions."""
        from repro.views.storage import ViewSet

        views = ViewSet(view.definition for view in self.views.values())
        for view in self.views.values():
            views.set_extension(view)
        return views

    def __repr__(self) -> str:
        return (
            f"LoadedSnapshot({self.path!r}, kind={self.manifest.get('kind')!r}, "
            f"views={len(self.views)})"
        )


# ----------------------------------------------------------------------
# SnapshotStore
# ----------------------------------------------------------------------
class SnapshotStore:
    """Save/load/inspect persistent snapshot directories."""

    # -- save ----------------------------------------------------------
    @staticmethod
    def save(path, snapshot, views=None, overwrite: bool = False) -> dict:
        """Persist ``snapshot`` (and optionally its views) under ``path``.

        ``snapshot`` may be a live :class:`DataGraph` (frozen here), a
        :class:`CompactGraph` or a
        :class:`~repro.shard.sharded.ShardedGraph`.  The tables it holds
        are written as they are; the object passed in is not changed.
        ``views`` is a ViewSet or ``{name: MaterializedView}`` mapping;
        views whose payload is a FlatExtension bound to this exact
        compact snapshot are saved as attachable segment files,
        everything else falls back to a plain pickle.

        With ``overwrite=True`` an existing snapshot is replaced via a
        sibling temp directory and rename swap, so readers never see a
        half-written directory.  Returns the manifest.
        """
        snapshot = _as_saveable(snapshot)
        extensions = _as_extensions(views)
        return write_directory(
            path,
            lambda dirpath: _write_snapshot(dirpath, snapshot, extensions),
            overwrite,
            tmp_prefix=".snapshot-tmp-",
        )

    # -- load ----------------------------------------------------------
    @staticmethod
    def load(path, verify: bool = False) -> LoadedSnapshot:
        """Reload a snapshot directory via read-only ``mmap``.

        Header structure and table-directory checksums are always
        validated; ``verify=True`` additionally CRCs every segment
        payload (reads all bytes -- use for integrity audits, not
        serving boots).  Raises :class:`SnapshotError` on a missing or
        malformed directory and
        :class:`~repro.graph.flatbuf.SegmentFormatError` on a corrupt
        segment file.
        """
        final = os.fspath(path)
        manifest = _read_manifest(final)
        kind = manifest.get("kind")
        if kind == "compact":
            graph = _load_compact(final, manifest, verify)
        elif kind == "sharded":
            graph = _load_sharded(final, manifest, verify)
        else:
            raise SnapshotError(f"{final}: unknown snapshot kind {kind!r}")
        views = _load_views(final, manifest, graph, verify)
        return LoadedSnapshot(final, graph, views, manifest)

    # -- info ----------------------------------------------------------
    @staticmethod
    def info(path, verify: bool = False) -> dict:
        """Manifest plus on-disk footprint, without attaching payloads.

        Returns ``{"path", "manifest", "files", "on_disk_bytes",
        "boundary", "verified_segments"}``: ``files`` maps every file to
        its size, ``boundary`` every boundary-row file of a sharded
        snapshot to ``{"rows", "bridge_pairs", "bytes"}`` (read from the
        segment's table directory).  ``verify=True`` runs the full
        payload CRC pass over every segment file, boundary rows
        included (still without mapping them).
        """
        final = os.fspath(path)
        manifest = _read_manifest(final)
        files = {
            entry: os.path.getsize(os.path.join(final, entry))
            for entry in sorted(os.listdir(final))
            if os.path.isfile(os.path.join(final, entry))
        }
        verified: List[str] = []
        if verify:
            for entry in files:
                if entry.endswith(".seg"):
                    verify_segment_file(os.path.join(final, entry))
                    verified.append(entry)
        boundary: Dict[str, Dict[str, int]] = {}
        if manifest.get("kind") == "sharded":
            from repro.shard.sharded import boundary_summary

            for shard in manifest["shard_files"]:
                fname = shard["boundary"]
                header = _read_segment_header(os.path.join(final, fname))[2]
                boundary[fname] = dict(boundary_summary(header), bytes=files[fname])
        return {
            "path": final,
            "manifest": manifest,
            "files": files,
            "on_disk_bytes": sum(files.values()),
            "boundary": boundary,
            "verified_segments": verified,
        }


def snapshot_on_disk_bytes(path) -> int:
    """Total byte footprint of a snapshot directory (0 if absent)."""
    final = os.fspath(path)
    if not os.path.isdir(final):
        return 0
    return sum(
        os.path.getsize(os.path.join(final, entry))
        for entry in os.listdir(final)
        if os.path.isfile(os.path.join(final, entry))
    )


# ----------------------------------------------------------------------
# Save internals
# ----------------------------------------------------------------------
def _as_saveable(snapshot):
    """Normalize any graph form into a snapshot (compact or sharded)."""
    from repro.graph.digraph import DataGraph
    from repro.shard.sharded import ShardedGraph

    if isinstance(snapshot, DataGraph):
        snapshot = snapshot.freeze()
    if isinstance(snapshot, (CompactGraph, ShardedGraph)):
        return snapshot
    raise SnapshotError(
        f"cannot snapshot object of type {type(snapshot).__name__}"
    )


def _as_extensions(views) -> Dict[str, Any]:
    if views is None:
        return {}
    if hasattr(views, "extensions"):
        return views.extensions()
    return dict(views)


def _dump(obj, path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(path: str) -> None:
    """Make the entries of directory ``path`` -- files created or
    renamed into it -- durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_directory(path, write, overwrite: bool, tmp_prefix: str):
    """Run ``write(dirpath)`` so that ``path`` ends up holding a whole
    snapshot or nothing new (shared by save and ingest).

    A fresh or empty ``path`` is written in place (and emptied again
    if ``write`` fails); a populated one is refused without
    ``overwrite`` and otherwise replaced by building in a sibling temp
    directory and swapping renames, so readers never see a half-written
    directory.  If the swap fails, the previous snapshot is renamed
    back.  ``write`` fsyncs what it writes (:func:`commit_manifest`
    last); the parent directory is fsynced once ``path`` is in place.
    Returns what ``write`` returned.
    """
    import shutil
    import tempfile

    final = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(final)) or "."
    existing = os.path.isdir(final) and bool(os.listdir(final))
    if existing and not overwrite:
        raise SnapshotError(
            f"{final}: directory exists and is not empty "
            "(pass overwrite=True to replace it)"
        )
    if not existing:
        created = not os.path.isdir(final)
        os.makedirs(final, exist_ok=True)
        try:
            result = write(final)
        except BaseException:
            # Never leave a partial (manifest-less) build behind; put a
            # pre-existing empty directory back instead of deleting it.
            shutil.rmtree(final, ignore_errors=True)
            if not created:
                os.makedirs(final, exist_ok=True)
            raise
        _fsync_dir(parent)
        return result
    tmp = tempfile.mkdtemp(prefix=tmp_prefix, dir=parent)
    old = tmp + ".old"
    try:
        result = write(tmp)
        os.rename(final, old)
        try:
            os.rename(tmp, final)
        except BaseException:
            os.rename(old, final)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _fsync_dir(parent)
    shutil.rmtree(old, ignore_errors=True)
    return result


def _write_snapshot(dirpath: str, snapshot, extensions: Dict[str, Any]) -> dict:
    from repro.shard.sharded import ShardedGraph

    if isinstance(snapshot, ShardedGraph):
        manifest = _write_sharded(dirpath, snapshot)
        flat_token = None  # sharded views have no attachable segment form
    else:
        manifest = _write_compact(dirpath, snapshot)
        flat_token = snapshot.snapshot_token
    manifest["views"] = _write_views(dirpath, snapshot, extensions, flat_token)
    return commit_manifest(dirpath, manifest)


def commit_manifest(dirpath: str, manifest: dict) -> dict:
    """Stamp and write ``manifest.json`` -- last and atomically, so a
    directory without one is never mistaken for a valid snapshot.  The
    manifest is fsynced before its rename and the directory after it,
    so once this returns the snapshot survives a crash whole."""
    manifest["format"] = SNAPSHOT_FORMAT
    manifest["created_at"] = time.time()
    tmp_manifest = os.path.join(dirpath, MANIFEST_NAME + ".tmp")
    with open(tmp_manifest, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_manifest, os.path.join(dirpath, MANIFEST_NAME))
    _fsync_dir(dirpath)
    return manifest


def _graph_meta(snapshot) -> dict:
    return {
        "nodes": snapshot.num_nodes,
        "edges": snapshot.num_edges,
        "snapshot_version": snapshot.snapshot_version,
        "snapshot_token": snapshot.snapshot_token,
        "extends_token": snapshot.extends_token,
    }


def _write_tables(dirpath: str, snapshot: CompactGraph, entry: dict, patch: str) -> None:
    """Seal ``snapshot``'s tables as ``entry["segment"]``, and its patch
    overlay, if it has one, as ``patch`` (recorded in ``entry``)."""
    snapshot.saved_store().save(os.path.join(dirpath, entry["segment"]))
    if snapshot._patch:
        _dump(snapshot._patch, os.path.join(dirpath, patch))
        entry["patch"] = patch


def _write_compact(dirpath: str, snapshot: CompactGraph) -> dict:
    files = {"segment": "graph.seg"}
    _write_tables(dirpath, snapshot, files, "patch.pkl")
    return {"kind": "compact", "graph": _graph_meta(snapshot), "files": files}


def shard_entry(segment: str, snapshot: CompactGraph) -> dict:
    """The manifest entry of one sealed shard segment."""
    return {
        "segment": segment,
        "meta": [
            snapshot.num_nodes,
            snapshot.num_edges,
            snapshot.snapshot_version,
            snapshot.snapshot_token,
            snapshot.extends_token,
        ],
    }


def sharded_manifest(
    dirpath: str,
    entries: List[dict],
    own_counts: Sequence[int],
    boundary: Iterable[FlatStore],
    *,
    graph: dict,
    strategy: str,
    edge_cut: int,
) -> dict:
    """The ``kind: "sharded"`` manifest body for shard segments already
    sealed under ``dirpath`` -- the one producer of the format-2
    layout, shared by :meth:`SnapshotStore.save` and streaming ingest.

    ``entries`` are the per-shard :func:`shard_entry` dicts; ``boundary``
    yields each shard's boundary-row store in shard order and is
    consumed one store at a time (ingest hands in a generator so only
    one shard's rows are ever resident), each saved as
    ``boundary-NNN.seg`` beside its shard.
    """
    for index, (entry, store) in enumerate(zip(entries, boundary)):
        entry["boundary"] = f"boundary-{index:03d}.seg"
        store.save(os.path.join(dirpath, entry["boundary"]))
    return {
        "kind": "sharded",
        "graph": graph,
        "shards": len(entries),
        "strategy": strategy,
        "own_counts": list(own_counts),
        "edge_cut": edge_cut,
        "shard_files": entries,
    }


def _write_sharded(dirpath: str, sharded) -> dict:
    entries: List[dict] = []
    for i, shard in enumerate(sharded.shards):
        entry = shard_entry(f"shard-{i:03d}.seg", shard)
        _write_tables(dirpath, shard, entry, f"patch-{i:03d}.pkl")
        entries.append(entry)
    k = sharded.num_shards
    return sharded_manifest(
        dirpath,
        entries,
        [sharded.own_count(i) for i in range(k)],
        [sharded.boundary_store(i) for i in range(k)],
        graph=_graph_meta(sharded),
        strategy=sharded.strategy,
        edge_cut=sharded.edge_cut,
    )


def _write_views(
    dirpath: str, snapshot, extensions: Dict[str, Any], flat_token
) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for idx, name in enumerate(sorted(extensions)):
        view = extensions[name]
        payload = getattr(view, "compact", None)
        definition = getattr(view, "definition", None)
        if definition is None:
            log.warning("snapshot save: view %r has no definition; skipped", name)
            continue
        if payload is not None and payload.token == flat_token:
            seg = f"view-{idx:03d}.seg"
            meta = f"view-{idx:03d}.pkl"
            if payload.store is None:
                from repro.views.flatpack import FlatExtension

                payload = FlatExtension.pack(snapshot, payload)
            payload.store.save(os.path.join(dirpath, seg))
            _dump(
                {
                    "definition": definition,
                    "edge_order": payload.edge_order,
                    "token": payload.token,
                    "version": payload.version,
                    "bounded": payload.distances is not None,
                },
                os.path.join(dirpath, meta),
            )
            out[name] = {"kind": "flat", "segment": seg, "meta": meta}
        else:
            fname = f"view-{idx:03d}.view"
            _dump(view, os.path.join(dirpath, fname))
            out[name] = {"kind": "pickle", "pickle": fname}
    return out


# ----------------------------------------------------------------------
# Load internals
# ----------------------------------------------------------------------
def _read_manifest(dirpath: str) -> dict:
    manifest_path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise SnapshotError(
            f"{dirpath}: not a snapshot directory (no {MANIFEST_NAME})"
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{dirpath}: unreadable manifest ({exc})") from exc
    fmt = manifest.get("format")
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{dirpath}: unsupported snapshot format {fmt!r} "
            f"(this build reads format {SNAPSHOT_FORMAT}; re-create the "
            "directory with `repro ingest` or `repro snapshot save`)"
        )
    return manifest


def _load_pickle(dirpath: str, fname: str):
    with open(os.path.join(dirpath, fname), "rb") as fh:
        try:
            return pickle.load(fh)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise SnapshotError(
                f"{dirpath}: {fname} is truncated or corrupt ({exc})"
            ) from exc


def _load_compact(dirpath: str, manifest: dict, verify: bool) -> CompactGraph:
    files = manifest["files"]
    store = FlatStore.open(os.path.join(dirpath, files["segment"]), verify=verify)
    patch = _load_pickle(dirpath, files["patch"]) if "patch" in files else None
    g = manifest["graph"]
    meta = (
        g["nodes"],
        g["edges"],
        g["snapshot_version"],
        g["snapshot_token"],
        g["extends_token"],
    )
    return _attach(store, patch, meta)


def _load_sharded(dirpath: str, manifest: dict, verify: bool):
    from repro.shard.sharded import ShardedGraph

    shards: List[CompactGraph] = []
    boundary: List[FlatStore] = []
    for entry in manifest["shard_files"]:
        store = FlatStore.open(
            os.path.join(dirpath, entry["segment"]), verify=verify
        )
        patch = _load_pickle(dirpath, entry["patch"]) if "patch" in entry else None
        shards.append(_attach(store, patch, tuple(entry["meta"])))
        boundary.append(
            FlatStore.open(os.path.join(dirpath, entry["boundary"]), verify=verify)
        )
    g = manifest["graph"]
    return ShardedGraph.attach(
        shards,
        manifest["own_counts"],
        boundary,
        strategy=manifest["strategy"],
        num_edges=g["edges"],
        edge_cut=manifest["edge_cut"],
        version=g["snapshot_version"],
        token=g["snapshot_token"],
        extends_token=g["extends_token"],
    )


def _load_views(dirpath: str, manifest: dict, graph, verify: bool) -> Dict[str, Any]:
    entries = manifest.get("views") or {}
    if not entries:
        return {}
    from repro.views.flatpack import _attach_extension
    from repro.views.view import _attach_view

    views: Dict[str, Any] = {}
    for name, entry in entries.items():
        if entry.get("kind") == "pickle":
            views[name] = _load_pickle(dirpath, entry["pickle"])
            continue
        store = FlatStore.open(
            os.path.join(dirpath, entry["segment"]), verify=verify
        )
        meta = _load_pickle(dirpath, entry["meta"])
        flat = _attach_extension(
            store,
            graph.node_table,
            meta["edge_order"],
            meta["token"],
            meta["version"],
            meta["bounded"],
        )
        views[name] = _attach_view(meta["definition"], flat)
    return views
