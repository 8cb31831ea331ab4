"""Persistent snapshot directories: save/load mmap-backed graph state.

:meth:`SnapshotStore.save` writes the tables a frozen snapshot already
holds (:meth:`CompactGraph.saved_store`; the graph it was given is left
as it was) as sealed segment files (see :mod:`repro.graph.flatbuf`)
plus a ``manifest.json``; :meth:`SnapshotStore.load` maps them back
read-only -- no edge list is re-read, no CSR is rebuilt, and a reload
touches only the pages a query visits.

Directory layout (format 3)::

    snapshot/                  # the path callers name
      gen-7/                   # live: the highest gen-N holding a manifest
        manifest.json          # kind, counts, tokens, file map (written last)
        graph.seg              # compact: the snapshot's flat segment
        patch.json             # compact: applied() overlay (optional)
        shard-000.seg ...      # sharded: one sealed segment per shard
        boundary-000.seg ...   # sharded: per-shard boundary rows (int tables)
        patch-000.json ...     # sharded: per-shard patch overlays (optional)
        view-000.seg ...       # a view's id rows (FlatExtension.store)
        view-000.json ...      # its definition, edge order and provenance

Every file is a segment of int and JSON tables or a JSON document, and
a view has one form on both layouts: its id rows, decoded through the
loaded graph's own node table.

Every save and every ingest writes a fresh generation, fsyncing each
file as it goes.  The atomic rename of its manifest, written last, is
the one commit point; only after it are older generations removed
(:func:`write_directory`), so a kill at any instant leaves the previous
snapshot or the new one live.  :func:`live_directory` is the one reader
of the layout.

Provenance survives the round trip: ``snapshot_token`` /
``extends_token`` and any ``applied()`` patch overlay are persisted
verbatim, so a reloaded snapshot rebinds extensions and takes the
MatchJoin id-space paths like its in-memory origin.  A sharded snapshot
persists its composite bookkeeping -- each shard's local -> global id
row and the (owner-local id, ghost id) bridge pairs per holder -- as
flat int rows (``boundary-NNN.seg``, see
:func:`repro.shard.sharded.boundary_stores`), so its load is the
manifest plus one ``mmap`` attach per file; everything keyed by node
*name* (home map, ghost maps, the decode table, cross-shard
predecessors) is derived from the shards on first name-based access.
A sharded directory comes from ``repro ingest``.  Directories of an
older format (format 2 held pickles) are refused: re-create them with
``repro ingest`` or ``repro snapshot save``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.graph.compact import (
    CompactGraph,
    SnapshotError,
    _attach,
    patch_from_json,
    patch_to_json,
)
from repro.graph.flatbuf import FlatStore, _read_segment_header, verify_segment_file

MANIFEST_NAME = "manifest.json"
SNAPSHOT_FORMAT = 3


# ----------------------------------------------------------------------
# LoadedSnapshot
# ----------------------------------------------------------------------
class LoadedSnapshot(NamedTuple):
    """The product of :meth:`SnapshotStore.load`.

    ``graph`` is a :class:`~repro.graph.compact.CompactGraph` or
    :class:`~repro.shard.sharded.ShardedGraph` whose columns are
    mmap-backed; ``views`` maps view names to reloaded materialized
    views.  :meth:`viewset` assembles both into a ready
    :class:`~repro.views.storage.ViewSet`.
    """

    path: str
    graph: Any
    views: Dict[str, Any]
    manifest: dict

    def viewset(self):
        """A ViewSet holding the persisted definitions and extensions."""
        from repro.views.storage import ViewSet

        views = ViewSet(view.definition for view in self.views.values())
        for view in self.views.values():
            views.set_extension(view)
        return views


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
        ``views`` is a ViewSet or ``{name: MaterializedView}`` mapping,
        every view materialized on this snapshot (its id rows are what
        is saved); any other view is refused with a
        :class:`SnapshotError`.

        Every save is a new generation of ``path`` (see
        :func:`write_directory`); a populated ``path`` needs
        ``overwrite=True``, and a kill at any instant leaves the
        previous snapshot or this one loadable.  Returns the manifest.
        """
        snapshot = _as_saveable(snapshot)
        extensions = views.extensions() if hasattr(views, "extensions") else dict(views or {})
        return write_directory(
            path,
            lambda dirpath: _write_snapshot(dirpath, snapshot, extensions),
            overwrite,
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
        live, manifest = _live_manifest(path)
        kind = manifest.get("kind")
        if kind == "compact":
            meta = [manifest["graph"][key] for key in _META_KEYS]
            graph = _attach_tables(live, manifest["files"], meta, verify)
        elif kind == "sharded":
            graph = _load_sharded(live, manifest, verify)
        else:
            raise SnapshotError(f"{live}: unknown snapshot kind {kind!r}")
        views = _load_views(live, manifest, graph, verify)
        return LoadedSnapshot(os.fspath(path), graph, views, manifest)

    # -- info ----------------------------------------------------------
    @staticmethod
    def info(path, verify: bool = False) -> dict:
        """Manifest plus on-disk footprint, without attaching payloads.

        Returns ``{"path", "manifest", "files", "on_disk_bytes",
        "segments", "boundary", "verified_segments", "stale"}``:
        ``files`` maps every file of the live generation to its size,
        ``segments`` every segment file to its per-table byte counts and
        ``boundary`` every boundary-row file of a sharded snapshot to
        ``{"rows", "bridge_pairs", "bytes"}`` (all read from the
        segments' table directories).  ``stale`` lists the entries of
        ``path`` outside the live generation -- non-empty only after an
        interrupted write, swept by the next save.  ``verify=True`` runs
        the full payload CRC pass over every segment file, boundary rows
        included (still without mapping them).
        """
        final = os.fspath(path)
        live, manifest = _live_manifest(final)
        files = snapshot_files(final)
        headers = {
            entry: _read_segment_header(os.path.join(live, entry))[2]
            for entry in files
            if entry.endswith(".seg")
        }
        for entry in headers if verify else ():
            verify_segment_file(os.path.join(live, entry))
        boundary: Dict[str, Dict[str, int]] = {}
        if manifest.get("kind") == "sharded":
            from repro.shard.sharded import boundary_summary

            for shard in manifest["shard_files"]:
                fname = shard["boundary"]
                boundary[fname] = dict(
                    boundary_summary(headers[fname]), bytes=files[fname]
                )
        return {
            "path": final,
            "manifest": manifest,
            "files": files,
            "on_disk_bytes": sum(files.values()),
            "segments": {
                entry: {name: nbytes for name, (_, _, nbytes) in header.items()}
                for entry, header in headers.items()
            },
            "boundary": boundary,
            "verified_segments": list(headers) if verify else [],
            # Outside the live snapshot: what an interrupted write left.
            "stale": sorted(set(os.listdir(final)) - {os.path.basename(live)}),
        }


def snapshot_files(path) -> Dict[str, int]:
    """Every file of the snapshot at ``path`` and its size, sorted by
    name (empty if the directory is absent)."""
    live = live_directory(path)
    if not os.path.isdir(live):
        return {}
    return {
        entry: os.path.getsize(os.path.join(live, entry))
        for entry in sorted(os.listdir(live))
        if os.path.isfile(os.path.join(live, entry))
    }


def live_directory(path) -> str:
    """The directory holding the snapshot at ``path``: its
    highest-numbered ``gen-N`` with a manifest, else ``path`` itself,
    which no reader takes for a snapshot (the error names it).  The one
    reader of the layout: ``load``, ``info`` and :func:`snapshot_files`
    resolve here."""
    final = os.fspath(path)
    for _, name in _generations(final):
        if os.path.isfile(os.path.join(final, name, MANIFEST_NAME)):
            return os.path.join(final, name)
    return final


def _generations(path: str) -> List[Tuple[int, str]]:
    """``(N, "gen-N")`` of every generation entry of ``path``, committed
    or not, newest first."""
    names = os.listdir(path) if os.path.isdir(path) else ()
    found = [(int(n[4:]), n) for n in names if n.startswith("gen-") and n[4:].isdecimal()]
    return sorted(found, reverse=True)


# ----------------------------------------------------------------------
# Save internals
# ----------------------------------------------------------------------
def _as_saveable(graph):
    """Any graph form as a snapshot, compact or sharded (its ``freeze()``)."""
    from repro.shard.sharded import ShardedGraph

    snapshot = graph.freeze() if hasattr(graph, "freeze") else graph
    if not isinstance(snapshot, (CompactGraph, ShardedGraph)):
        raise SnapshotError(f"cannot snapshot object of type {type(graph).__name__}")
    return snapshot


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
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


def write_directory(path, write, overwrite: bool):
    """Run ``write(dirpath)`` into a fresh generation ``path/gen-N`` (N
    one above the highest present) and make it live; shared by save and
    ingest.  A populated ``path`` needs ``overwrite``.

    ``write`` fsyncs what it writes and ends with :func:`commit_manifest`,
    the one commit point.  Then ``path`` and its parent are fsynced, and
    only then is every other entry of ``path`` removed: older or
    unfinished generations and anything else.  A ``write``
    that raises takes its generation (and a ``path`` this call created)
    with it.  Returns what ``write`` returned.
    """
    import shutil

    final = os.fspath(path)
    created = not os.path.isdir(final)
    if not created and os.listdir(final) and not overwrite:
        raise SnapshotError(
            f"{final}: directory exists and is not empty "
            "(pass overwrite=True to replace it)"
        )
    newest = _generations(final)
    gen = os.path.join(final, f"gen-{newest[0][0] + 1 if newest else 1}")
    os.makedirs(gen)
    try:
        result = write(gen)
    except BaseException:
        shutil.rmtree(final if created else gen, ignore_errors=True)
        raise
    _fsync_dir(final)
    # The parent too: whoever created ``path`` may not have synced it.
    _fsync_dir(os.path.dirname(os.path.abspath(final)))
    for victim in (os.path.join(final, entry) for entry in os.listdir(final)):
        if victim == gen:
            continue
        if os.path.isdir(victim):
            shutil.rmtree(victim)
        else:
            os.unlink(victim)
    return result


def _write_snapshot(dirpath: str, snapshot, extensions: Dict[str, Any]) -> dict:
    from repro.shard.sharded import ShardedGraph

    if isinstance(snapshot, ShardedGraph):
        manifest = _write_sharded(dirpath, snapshot)
    else:
        manifest = _write_compact(dirpath, snapshot)
    manifest["views"] = _write_views(dirpath, snapshot, extensions)
    return commit_manifest(dirpath, manifest)


def commit_manifest(dirpath: str, manifest: dict) -> dict:
    """Stamp and write ``manifest.json`` -- last and atomically, so a
    directory without one is never mistaken for a valid snapshot.  The
    manifest is fsynced before its rename and the directory after it,
    so once this returns the snapshot survives a crash whole."""
    manifest["format"] = SNAPSHOT_FORMAT
    manifest["created_at"] = time.time()
    tmp_manifest = os.path.join(dirpath, MANIFEST_NAME + ".tmp")
    _write_json(tmp_manifest, manifest)
    os.replace(tmp_manifest, os.path.join(dirpath, MANIFEST_NAME))
    _fsync_dir(dirpath)
    return manifest


#: A graph's provenance fields, in the order ``_attach`` takes them.
_META_KEYS = ("nodes", "edges", "snapshot_version", "snapshot_token", "extends_token")


def _meta(snapshot) -> list:
    return [snapshot.num_nodes, snapshot.num_edges, snapshot.snapshot_version,
            snapshot.snapshot_token, snapshot.extends_token]


def _write_tables(dirpath: str, snapshot: CompactGraph, entry: dict, patch: str) -> None:
    """Seal ``snapshot``'s tables as ``entry["segment"]``, and its patch
    overlay, if it has one, as ``patch`` (recorded in ``entry``)."""
    snapshot.saved_store().save(os.path.join(dirpath, entry["segment"]))
    if snapshot._patch:
        _write_json(os.path.join(dirpath, patch), patch_to_json(snapshot._patch))
        entry["patch"] = patch


def _write_compact(dirpath: str, snapshot: CompactGraph) -> dict:
    files = {"segment": "graph.seg"}
    _write_tables(dirpath, snapshot, files, "patch.json")
    graph = dict(zip(_META_KEYS, _meta(snapshot)))
    return {"kind": "compact", "graph": graph, "files": files}


def shard_entry(segment: str, snapshot: CompactGraph) -> dict:
    """The manifest entry of one sealed shard segment."""
    return {"segment": segment, "meta": _meta(snapshot)}


def sharded_manifest(
    dirpath: str,
    entries: List[dict],
    own_counts: Sequence[int],
    boundary: Iterable[FlatStore],
    *,
    graph: dict,
    edge_cut: int,
) -> dict:
    """The ``kind: "sharded"`` manifest body for shard segments already
    sealed under ``dirpath`` -- the one producer of the sharded
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
        "own_counts": list(own_counts),
        "edge_cut": edge_cut,
        "shard_files": entries,
    }


def _write_sharded(dirpath: str, sharded) -> dict:
    entries: List[dict] = []
    for i, shard in enumerate(sharded.shards):
        entry = shard_entry(f"shard-{i:03d}.seg", shard)
        _write_tables(dirpath, shard, entry, f"patch-{i:03d}.json")
        entries.append(entry)
    k = sharded.num_shards
    return sharded_manifest(
        dirpath,
        entries,
        [sharded.own_count(i) for i in range(k)],
        [sharded.boundary_store(i) for i in range(k)],
        graph=dict(zip(_META_KEYS, _meta(sharded))),
        edge_cut=sharded.edge_cut,
    )


def _write_views(dirpath: str, snapshot, extensions: Dict[str, Any]) -> Dict[str, dict]:
    """Save every view as its id rows (``view-NNN.seg``) plus a JSON doc
    (``view-NNN.json``) of its definition, row order and provenance."""
    from repro.views.io import stored_view_to_json

    out: Dict[str, dict] = {}
    for idx, name in enumerate(sorted(extensions)):
        view = extensions[name]
        payload = view.compact
        if payload.token != snapshot.snapshot_token:
            raise SnapshotError(
                f"view {name!r} is not bound to the snapshot being saved: "
                "materialise it on that snapshot first"
            )
        entry = {"segment": f"view-{idx:03d}.seg", "meta": f"view-{idx:03d}.json"}
        payload.store.save(os.path.join(dirpath, entry["segment"]))
        _write_json(os.path.join(dirpath, entry["meta"]), stored_view_to_json(view))
        out[name] = entry
    return out


# ----------------------------------------------------------------------
# Load internals
# ----------------------------------------------------------------------
def _read_json(dirpath: str, fname: str):
    try:
        with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{dirpath}: {fname} is unreadable ({exc})") from exc


def _live_manifest(path) -> Tuple[str, dict]:
    """The live generation of the snapshot at ``path`` and its manifest,
    refused unless this build reads its format."""
    final = os.fspath(path)
    live = live_directory(final)
    if live == final:
        raise SnapshotError(
            f"{final}: not a snapshot directory (no gen-N/{MANIFEST_NAME}; "
            "re-create it with `repro ingest` or `repro snapshot save`)"
        )
    manifest = _read_json(live, MANIFEST_NAME)
    fmt = manifest.get("format")
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{live}: unsupported snapshot format {fmt!r} "
            f"(this build reads format {SNAPSHOT_FORMAT}; re-create the "
            "directory with `repro ingest` or `repro snapshot save`)"
        )
    return live, manifest


def _attach_tables(dirpath: str, entry: dict, meta, verify: bool) -> CompactGraph:
    """The snapshot over ``entry``'s segment and patch overlay."""
    store = FlatStore.open(os.path.join(dirpath, entry["segment"]), verify=verify)
    patch = patch_from_json(_read_json(dirpath, entry["patch"])) if "patch" in entry else None
    return _attach(store, patch, tuple(meta))


def _load_sharded(dirpath: str, manifest: dict, verify: bool):
    from repro.shard.sharded import ShardedGraph

    entries = manifest["shard_files"]
    g = manifest["graph"]
    return ShardedGraph(
        [_attach_tables(dirpath, entry, entry["meta"], verify) for entry in entries],
        manifest["own_counts"],
        [FlatStore.open(os.path.join(dirpath, e["boundary"]), verify=verify) for e in entries],
        num_edges=g["edges"],
        edge_cut=manifest["edge_cut"],
        version=g["snapshot_version"],
        token=g["snapshot_token"],
        extends_token=g["extends_token"],
    )


def _load_views(dirpath: str, manifest: dict, graph, verify: bool) -> Dict[str, Any]:
    """Every saved view, its rows attached to decode through ``graph``'s
    own node table (nothing is decoded until a query reads it)."""
    if not manifest["views"]:
        return {}
    from repro.views.io import stored_view_from_json

    return {
        name: stored_view_from_json(
            _read_json(dirpath, entry["meta"]),
            FlatStore.open(os.path.join(dirpath, entry["segment"]), verify=verify),
            graph.node_table,
        )
        for name, entry in manifest["views"].items()
    }
