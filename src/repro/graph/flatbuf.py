"""Flat-buffer storage core: zero-copy shared-memory snapshots.

The paper's complexity bounds (Theorems 1-3 and the MatchJoin algorithm
of Section V) assume an indexed, array-addressable graph.
:class:`~repro.graph.compact.CompactGraph` approximates that with
per-node Python tuples, which evaluate fast in-process but make process
fan-out expensive: every pool dispatch pays a full pickle of the object
graph (tuples, dicts, label sets) on the parent and a full unpickle on
every worker.

This module moves the snapshot's columns into *flat buffers*:

* CSR out/in adjacency as ``(indptr, indices)`` pairs of 64-bit ints;
* per-node label rows and per-label **sorted id buckets** as CSR pairs
  over an interned label table;
* node keys / attribute dicts as pickled blobs decoded lazily, once per
  process;

all packed into **one byte segment** behind a small header
(``{table: (kind, offset, nbytes)}``).  The segment's *backing* is
pluggable -- a backend registry selects between:

* ``shm`` -- :class:`multiprocessing.shared_memory.SharedMemory`, the
  default wherever the platform provides it (zero-copy process fan-out);
* ``bytes`` -- a plain in-process ``bytearray`` fallback (pickles ship
  the payload);
* ``file`` -- a **versioned on-disk segment** (fixed
  magic/version/checksum header, payload, then the pickled table
  directory as a trailer) attached read-only via ``mmap``, which is
  what makes snapshots durable: :meth:`FlatStore.save` writes one,
  :meth:`FlatStore.open` maps it back without rebuilding anything.

A :class:`SharedCompactGraph` built over such a
:class:`FlatStore` pickles as *segment name + header + meta*: workers
**attach** to the segment instead of unpickling the object graph, and
materialize only the rows their traversals actually touch
(:class:`_LazyRows`).  Ship cost becomes O(header), not O(|G|).

Segment lifecycle is deterministic and refcounted in-process:

* the *creator* process owns the segment; a ``weakref.finalize`` on the
  owning :class:`Segment` unlinks it when the last snapshot referencing
  it is garbage collected (refresh chains share one segment -- see
  :meth:`SharedCompactGraph.refreshed` -- so the unlink happens when the
  last generation drops);
* *attachers* (pool workers) close their mapping but never unlink, and
  are unregistered from the ``resource_tracker`` immediately -- without
  that, every worker's tracker would try to unlink the segment at exit
  (the well-known "leaked shared_memory" spam) and could destroy it
  under the creator;
* an in-process **attach cache** keyed by segment name makes repeated
  attaches (a payload of many extensions sharing one snapshot segment)
  resolve to one mapping and one lazily-decoded blob cache.

``live_segment_names()`` exposes the creator-side registry so tests can
assert clean teardown.
"""

from __future__ import annotations

import logging
import mmap
import os
import pickle
import struct
import threading
import weakref
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.graph.compact import CompactGraph, Node

log = logging.getLogger(__name__)


def _have_shm() -> bool:
    """Whether the platform provides shared memory.  Probed on demand:
    ``multiprocessing`` is loaded by the first shm create/attach, never
    by a process that only maps segment files."""
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return False
    return True


#: Prefix of every segment this module creates -- lets tests (and
#: operators) recognise our segments in ``/dev/shm``.
SEGMENT_PREFIX = "repro_flat_"

#: Environment switch selecting the segment backend (``shm`` | ``bytes``
#: | ``file``); unset picks shared memory where available.
BACKEND_ENV = "REPRO_FLAT_BACKEND"

#: Spool directory for env-selected ``file`` segments (defaults to the
#: system temp dir).  Persistent saves name their own paths and ignore it.
FILE_DIR_ENV = "REPRO_FLAT_DIR"

_ITEMSIZE = 8  # all integer tables are 64-bit ('q')

#: On-disk segment format: fixed little-endian header, then the payload
#: (8-aligned, offset == header size), then the pickled table directory
#: as a trailer (its length is only known after packing).  Fields:
#: magic, format version, flags (bit 0 = unsealed), payload bytes,
#: payload CRC32, directory CRC32, directory bytes.
SEGMENT_MAGIC = b"RFSEG\x00\x01\n"
SEGMENT_FORMAT_VERSION = 1
_FILE_HEADER = struct.Struct("<8sIIQIIQ")
_FILE_HEADER_SIZE = _FILE_HEADER.size  # 40: keeps the payload 8-aligned
_FLAG_UNSEALED = 1


class SegmentFormatError(ValueError):
    """An on-disk segment failed validation (bad magic, unsupported
    version, truncation, or checksum mismatch)."""


_BACKENDS = ("shm", "bytes", "file")


def resolve_backend(choice: Optional[str] = None) -> str:
    """The single backend-selection rule shared by create and attach.

    ``choice`` (or :data:`BACKEND_ENV` when ``None``) names one of
    ``shm`` | ``bytes`` | ``file``; unset and unrecognised values keep
    the historical default of shared memory, and ``shm`` quietly
    degrades to ``bytes`` on platforms without it.
    """
    if choice is None:
        choice = os.environ.get(BACKEND_ENV) or "shm"
    if choice not in _BACKENDS:
        choice = "shm"
    if choice == "shm" and not _have_shm():
        choice = "bytes"
    return choice


def _spool_dir() -> str:
    import tempfile

    return os.environ.get(FILE_DIR_ENV) or tempfile.gettempdir()


# ----------------------------------------------------------------------
# Segment: one refcounted byte region (shared memory or plain bytes)
# ----------------------------------------------------------------------
_lock = threading.Lock()
#: Creator-side registry: name -> weakref to the owning Segment.  An
#: entry disappears when the segment is unlinked (finalizer or close).
_owned: Dict[str, "weakref.ref[Segment]"] = {}
#: Attach cache: name -> weakref to the attached Segment, so a payload
#: of many objects sharing one segment maps it exactly once per process.
_attached: Dict[str, "weakref.ref[Segment]"] = {}


def live_segment_names() -> List[str]:
    """Names of segments created by this process and not yet unlinked
    (test hook for the no-leak guarantee)."""
    with _lock:
        return [name for name, ref in _owned.items() if ref() is not None]


class Segment:
    """One byte region with deterministic, refcounted teardown.

    Created regions own their backing store: when the last Python
    reference drops (or :meth:`close` is called), shared memory is
    unlinked and spool files are deleted.  Attached regions only unmap
    and never delete (persistent segment files opened through
    :meth:`FlatStore.open` survive every attacher).  The plain
    ``bytes`` fallback needs no lifecycle at all but keeps the same
    interface, so every consumer is backend-agnostic.

    All three backends share one create/attach code path: the backend
    is picked by :func:`resolve_backend`, and the creator registry
    (``_owned``) and per-process attach cache (``_attached``) are keyed
    by the segment's name (its shm name or its file path) regardless of
    kind.
    """

    __slots__ = (
        "name",
        "nbytes",
        "kind",
        "_shm",
        "_bytes",
        "_mmap",
        "_path",
        "_finalizer",
        "__weakref__",
    )

    def __init__(self) -> None:  # use the factories below
        self.name: str = ""
        self.nbytes: int = 0
        self.kind: str = "bytes"
        self._shm = None
        self._bytes: Optional[bytearray] = None
        self._mmap: Optional[mmap.mmap] = None
        self._path: Optional[str] = None
        self._finalizer = None

    # -- factories -----------------------------------------------------
    @classmethod
    def create(cls, nbytes: int, backend: Optional[str] = None) -> "Segment":
        """A fresh writable segment of ``nbytes`` bytes (owned)."""
        segment = cls()
        segment.nbytes = nbytes
        segment.kind = resolve_backend(backend)
        token = SEGMENT_PREFIX + os.urandom(8).hex()
        if segment.kind == "shm":
            from multiprocessing import shared_memory

            segment.name = token
            shm = shared_memory.SharedMemory(
                name=segment.name, create=True, size=max(1, nbytes)
            )
            segment._shm = shm
            segment._finalizer = weakref.finalize(
                segment, _destroy_shm, shm, segment.name
            )
        elif segment.kind == "file":
            path = os.path.join(_spool_dir(), token + ".seg")
            segment.name = path
            segment._path = path
            with open(path, "w+b") as fh:
                fh.write(
                    _FILE_HEADER.pack(
                        SEGMENT_MAGIC,
                        SEGMENT_FORMAT_VERSION,
                        _FLAG_UNSEALED,
                        nbytes,
                        0,
                        0,
                        0,
                    )
                )
                fh.truncate(_FILE_HEADER_SIZE + nbytes)
                segment._mmap = mmap.mmap(
                    fh.fileno(), _FILE_HEADER_SIZE + nbytes, access=mmap.ACCESS_WRITE
                )
            segment._finalizer = weakref.finalize(
                segment, _destroy_file, segment._mmap, path
            )
        else:
            segment._bytes = bytearray(nbytes)
            log.debug(
                "shared memory unavailable/disabled: %d-byte segment "
                "falls back to in-process bytes", nbytes,
            )
        if segment.name:
            with _lock:
                _owned[segment.name] = weakref.ref(segment)
        return segment

    @classmethod
    def attach(cls, name: str, nbytes: int, kind: str = "shm") -> "Segment":
        """Map an existing named segment (worker side, never deletes).

        ``name`` is the shm name or the segment file path; both go
        through the same cache lookups, so a payload of many objects
        sharing one segment maps it exactly once per process.
        """
        with _lock:
            cached = _attached.get(name)
            segment = cached() if cached is not None else None
            if segment is not None:
                return segment
            owned = _owned.get(name)
            segment = owned() if owned is not None else None
            if segment is not None:
                # Same process as the creator: share the mapping.
                return segment
        if kind == "file":
            segment = cls._attach_file(name, nbytes)
        else:
            segment = cls._attach_shm(name, nbytes)
        with _lock:
            _attached[name] = weakref.ref(segment)
        return segment

    @classmethod
    def _attach_shm(cls, name: str, nbytes: int) -> "Segment":
        if not _have_shm():  # pragma: no cover - guarded by handle kind
            raise RuntimeError("shared memory is unavailable on this platform")
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=name)
        # Python's resource tracker registers *attachers* too (< 3.13)
        # and would unlink the segment when this worker exits; the
        # creator owns the unlink, so take this mapping off the books.
        try:  # pragma: no cover - tracker internals vary by version
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        segment = cls()
        segment.name = name
        segment.nbytes = nbytes
        segment.kind = "shm"
        segment._shm = shm
        segment._finalizer = weakref.finalize(segment, _close_shm, shm)
        return segment

    @classmethod
    def _attach_file(cls, path: str, nbytes: int) -> "Segment":
        payload_nbytes, _, _, _ = _read_segment_header(path)
        if nbytes >= 0 and nbytes != payload_nbytes:
            raise SegmentFormatError(
                f"{path}: payload is {payload_nbytes} bytes, handle expected {nbytes}"
            )
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        segment = cls()
        segment.name = path
        segment.nbytes = payload_nbytes
        segment.kind = "file"
        segment._mmap = mm
        segment._path = path
        segment._finalizer = weakref.finalize(segment, _close_mmap, mm)
        return segment

    @classmethod
    def wrap(cls, payload: bytes) -> "Segment":
        """Adopt a plain byte string (the unpickled fallback handle)."""
        segment = cls()
        segment.nbytes = len(payload)
        segment.kind = "bytes"
        segment._bytes = bytearray(payload)
        return segment

    # -- access --------------------------------------------------------
    @property
    def backend(self) -> str:
        return self.kind

    @property
    def buf(self) -> memoryview:
        if self._shm is not None:
            return self._shm.buf[: self.nbytes]
        if self._mmap is not None:
            return memoryview(self._mmap)[
                _FILE_HEADER_SIZE : _FILE_HEADER_SIZE + self.nbytes
            ]
        return memoryview(self._bytes)

    @property
    def on_disk_bytes(self) -> int:
        """File footprint (header + payload + directory); 0 unless the
        segment is file-backed."""
        if self._path is None:
            return 0
        try:
            return os.path.getsize(self._path)
        except OSError:  # pragma: no cover - racing deletion
            return 0

    def handle(self) -> Tuple[str, object]:
        """The picklable identity of this segment: ``("shm", name)`` or
        ``("file", path)`` for named backends, ``("bytes", payload)``
        for the fallback."""
        if self.kind == "bytes":
            return ("bytes", bytes(self._bytes))
        return (self.kind, self.name)

    @classmethod
    def from_handle(cls, kind: str, value, nbytes: int) -> "Segment":
        if kind in ("shm", "file"):
            return cls.attach(value, nbytes, kind)
        return cls.wrap(value)

    def seal(self, table_header: Dict[str, Tuple[str, int, int]]) -> None:
        """Finish a writable file segment: append the pickled table
        directory, compute checksums, and mark the header sealed.

        A no-op for ``shm``/``bytes`` backends, so :meth:`FlatStore.pack`
        can call it unconditionally.  Attaching an unsealed file raises
        :class:`SegmentFormatError` (the writer crashed mid-pack).
        """
        if self.kind != "file" or self._path is None:
            return
        dir_blob = pickle.dumps(table_header, protocol=pickle.HIGHEST_PROTOCOL)
        payload = self.buf
        header = _FILE_HEADER.pack(
            SEGMENT_MAGIC,
            SEGMENT_FORMAT_VERSION,
            0,
            self.nbytes,
            zlib.crc32(payload),
            zlib.crc32(dir_blob),
            len(dir_blob),
        )
        payload.release()
        with open(self._path, "ab") as fh:
            fh.write(dir_blob)
        self._mmap[:_FILE_HEADER_SIZE] = header
        self._mmap.flush()

    def close(self) -> None:
        """Tear down eagerly (idempotent): unlink/delete if owned, unmap."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._shm = None
        self._bytes = None
        self._mmap = None

    def __repr__(self) -> str:
        return f"Segment({self.name or '<bytes>'}, {self.nbytes}B, {self.backend})"


def _destroy_shm(shm, name: str) -> None:
    """Creator-side finalizer: unlink *then* unmap.

    Unlink first so the name disappears even if exported memoryviews
    (rows handed to long-lived results) keep the mapping alive; POSIX
    keeps the memory valid for existing maps after unlink.
    """
    with _lock:
        _owned.pop(name, None)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double close
        pass
    _close_shm(shm)


def _close_shm(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # Exported row views are still alive, so the mapping must
        # outlive this handle.  Detach it (fd closed, mmap reference
        # dropped) so SharedMemory.__del__ does not retry the close and
        # raise unraisably; the map itself is reclaimed when the last
        # view dies or the process exits.
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1
        shm._mmap = None
        shm._buf = None


def _close_mmap(mm) -> None:
    try:
        mm.close()
    except BufferError:
        # Exported row views keep the mapping alive; it is reclaimed
        # when the last view dies or the process exits.
        pass


def _destroy_file(mm, path: str) -> None:
    """Creator-side finalizer for spool files: delete *then* unmap
    (POSIX keeps the pages valid for existing maps after unlink)."""
    with _lock:
        _owned.pop(path, None)
    try:
        os.unlink(path)
    except FileNotFoundError:  # pragma: no cover - double close
        pass
    _close_mmap(mm)


def _read_segment_header(path) -> Tuple[int, int, Dict[str, Tuple[str, int, int]], int]:
    """Validate a segment file's fixed header and table directory.

    Returns ``(payload_nbytes, payload_crc, table_header, file_size)``;
    raises :class:`SegmentFormatError` on any structural problem.  The
    payload CRC is *not* verified here -- that would force a full read
    of a file the caller is about to lazily mmap; use
    :func:`verify_segment_file` for the deep check.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            raw = fh.read(_FILE_HEADER_SIZE)
            if len(raw) < _FILE_HEADER_SIZE:
                raise SegmentFormatError(f"{path}: truncated segment header")
            magic, version, flags, payload_nbytes, payload_crc, dir_crc, dir_nbytes = (
                _FILE_HEADER.unpack(raw)
            )
            if magic != SEGMENT_MAGIC:
                raise SegmentFormatError(f"{path}: not a repro segment file (bad magic)")
            if version != SEGMENT_FORMAT_VERSION:
                raise SegmentFormatError(
                    f"{path}: unsupported segment format version {version} "
                    f"(this build reads version {SEGMENT_FORMAT_VERSION})"
                )
            if flags & _FLAG_UNSEALED:
                raise SegmentFormatError(
                    f"{path}: segment was never sealed (writer crashed mid-pack?)"
                )
            if size < _FILE_HEADER_SIZE + payload_nbytes + dir_nbytes:
                raise SegmentFormatError(
                    f"{path}: truncated segment ({size} bytes, header promises "
                    f"{_FILE_HEADER_SIZE + payload_nbytes + dir_nbytes})"
                )
            fh.seek(_FILE_HEADER_SIZE + payload_nbytes)
            dir_blob = fh.read(dir_nbytes)
        if zlib.crc32(dir_blob) != dir_crc:
            raise SegmentFormatError(f"{path}: table directory checksum mismatch")
        table_header = pickle.loads(dir_blob) if dir_nbytes else {}
    except OSError as exc:
        raise SegmentFormatError(f"{path}: cannot read segment file ({exc})") from exc
    return payload_nbytes, payload_crc, table_header, size


def verify_segment_file(path) -> int:
    """Deep-verify a segment file (full payload CRC pass).

    Returns the payload byte count; raises :class:`SegmentFormatError`
    on corruption.  Reads the file in chunks, so it never maps or holds
    the payload in memory.
    """
    path = os.fspath(path)
    payload_nbytes, payload_crc, _, _ = _read_segment_header(path)
    crc = 0
    remaining = payload_nbytes
    with open(path, "rb") as fh:
        fh.seek(_FILE_HEADER_SIZE)
        while remaining:
            chunk = fh.read(min(remaining, 4 << 20))
            if not chunk:  # pragma: no cover - length checked above
                raise SegmentFormatError(f"{path}: truncated segment payload")
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
    if crc != payload_crc:
        raise SegmentFormatError(f"{path}: payload checksum mismatch")
    return payload_nbytes


def _release_views(arrays: Dict[str, memoryview]) -> None:
    for view in arrays.values():
        try:
            view.release()
        except (ValueError, BufferError):  # pragma: no cover
            pass
    arrays.clear()


# ----------------------------------------------------------------------
# FlatStore: named tables + blobs in one segment behind a small header
# ----------------------------------------------------------------------
class FlatStore:
    """Named flat tables packed into one :class:`Segment`.

    Two table kinds: ``"q"`` -- an ``array('q')`` of 64-bit ints,
    8-byte aligned, exposed as a zero-copy memoryview -- and ``"blob"``
    -- an opaque byte string (usually a pickle) decoded at most once
    per process via :meth:`obj`.

    The header (``{name: (kind, offset, nbytes)}``) is deliberately
    *not* written into the segment: it travels inside the pickle of
    whatever object owns the store, which is exactly the "ships segment
    names + header" contract -- a worker needs nothing but the pickle
    bytes to address every table.
    """

    __slots__ = ("segment", "header", "_arrays", "_objs", "__weakref__")

    def __init__(self, segment: Segment, header: Dict[str, Tuple[str, int, int]]):
        self.segment = segment
        self.header = header
        self._arrays: Dict[str, memoryview] = {}
        self._objs: Dict[str, object] = {}
        # Cached table views keep the mapping "exported"; release them
        # before the segment finalizer closes the mapping (finalizers
        # run LIFO, and this one is created after the segment's).
        weakref.finalize(self, _release_views, self._arrays)

    @classmethod
    def pack(
        cls,
        arrays: Dict[str, array],
        blobs: Dict[str, bytes],
        backend: Optional[str] = None,
    ) -> "FlatStore":
        """Lay the tables out in one fresh segment."""
        header: Dict[str, Tuple[str, int, int]] = {}
        offset = 0
        for name, arr in arrays.items():
            nbytes = len(arr) * _ITEMSIZE
            header[name] = ("q", offset, nbytes)
            offset += nbytes  # arrays first: offsets stay 8-aligned
        for name, blob in blobs.items():
            header[name] = ("blob", offset, len(blob))
            offset += len(blob)
        segment = Segment.create(offset, backend)
        buf = segment.buf
        for name, arr in arrays.items():
            _, start, nbytes = header[name]
            if nbytes:
                buf[start : start + nbytes] = memoryview(arr).cast("B")
        for name, blob in blobs.items():
            _, start, nbytes = header[name]
            if nbytes:
                buf[start : start + nbytes] = blob
        del buf
        segment.seal(header)
        return cls(segment, header)

    # -- durable segments ----------------------------------------------
    def save(self, path) -> int:
        """Write this store as a sealed, fsynced segment file; returns
        the file size.  The table directory rides in the file (trailer),
        so :meth:`open` needs nothing but the path."""
        path = os.fspath(path)
        dir_blob = pickle.dumps(self.header, protocol=pickle.HIGHEST_PROTOCOL)
        payload = self.segment.buf
        header = _FILE_HEADER.pack(
            SEGMENT_MAGIC,
            SEGMENT_FORMAT_VERSION,
            0,
            self.segment.nbytes,
            zlib.crc32(payload),
            zlib.crc32(dir_blob),
            len(dir_blob),
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(dir_blob)
            fh.flush()
            os.fsync(fh.fileno())
        payload.release()
        return os.path.getsize(path)

    @classmethod
    def open(cls, path, verify: bool = False) -> "FlatStore":
        """Attach a saved segment file read-only via ``mmap``.

        Header structure and directory checksum are always validated;
        ``verify=True`` additionally runs the full payload CRC pass
        (reads every byte -- skip it when you want lazy loading).
        Attaches are cached per process, like shm attaches.
        """
        path = os.fspath(path)
        if verify:
            verify_segment_file(path)
        _, _, table_header, _ = _read_segment_header(path)
        return _attach_store("file", path, -1, table_header)

    # -- pickling: segment handle + header, never the payload ----------
    def __reduce__(self):
        kind, value = self.segment.handle()
        return (_attach_store, (kind, value, self.segment.nbytes, self.header))

    # -- table access --------------------------------------------------
    def ints(self, name: str) -> memoryview:
        """Zero-copy 64-bit view of an integer table."""
        view = self._arrays.get(name)
        if view is None:
            _, start, nbytes = self.header[name]
            view = self.segment.buf[start : start + nbytes].cast("q")
            self._arrays[name] = view
        return view

    def blob(self, name: str) -> memoryview:
        _, start, nbytes = self.header[name]
        return self.segment.buf[start : start + nbytes]

    def obj(self, name: str):
        """Unpickle a blob table (memoized per process)."""
        value = self._objs.get(name)
        if value is None:
            value = pickle.loads(self.blob(name))
            self._objs[name] = value
        return value

    def table_bytes(self) -> Dict[str, int]:
        """Per-table byte footprint (the ``repro stats`` memory section)."""
        return {name: nbytes for name, (_, _, nbytes) in self.header.items()}

    @property
    def total_bytes(self) -> int:
        return self.segment.nbytes

    @property
    def backend(self) -> str:
        return self.segment.backend

    @property
    def on_disk_bytes(self) -> int:
        return self.segment.on_disk_bytes

    def __repr__(self) -> str:
        return (
            f"FlatStore({len(self.header)} tables, {self.total_bytes}B, "
            f"{self.backend})"
        )


#: Attach cache for stores: one FlatStore (and thus one decoded-blob
#: cache) per segment per process, however many payload objects
#: reference it.  Keyed by ``(kind, name)`` -- both named backends
#: (``shm`` and ``file``) share the code path.
_stores: Dict[Tuple[str, str], "weakref.ref[FlatStore]"] = {}


def _attach_store(kind, value, nbytes, header) -> FlatStore:
    key = (kind, value) if kind in ("shm", "file") else None
    if key is not None:
        with _lock:
            cached = _stores.get(key)
            store = cached() if cached is not None else None
        if store is not None:
            return store
    segment = Segment.from_handle(kind, value, nbytes)
    store = FlatStore(segment, header)
    if key is not None:
        with _lock:
            _stores[key] = weakref.ref(store)
    return store


@dataclass(frozen=True)
class ShipStats:
    """What one process-pool batch paid to ship its shared payload.

    ``bytes`` is the serialized payload size, ``seconds`` the wall time
    of the single ``pickle.dumps`` that produced it.  Flat-buffer
    objects (:class:`SharedCompactGraph`,
    :class:`~repro.views.flatpack.FlatExtension`) pickle to segment
    handles, so for a shared-memory snapshot both figures stay small
    and near-constant in graph size; dict payloads pay the full deep
    copy here.  In-process executors ship nothing and report zeros.
    """

    bytes: int = 0
    seconds: float = 0.0


# ----------------------------------------------------------------------
# CSR packing helpers
# ----------------------------------------------------------------------
def _pack_csr(rows) -> Tuple[array, array]:
    """``rows`` (iterable of int iterables) -> (indptr, indices)."""
    indptr = array("q", [0])
    indices = array("q")
    total = 0
    for row in rows:
        indices.extend(row)
        total += len(row)
        indptr.append(total)
    return indptr, indices


# ----------------------------------------------------------------------
# Lazy decoders over a store (worker-side structures)
# ----------------------------------------------------------------------
class _LazyRows:
    """Adjacency rows decoded on first touch.

    Python-list protocol over the CSR pair: ``rows[i]`` materializes
    ``tuple(indices[indptr[i]:indptr[i+1]])`` exactly once (a C-level
    slice copy, no pickle machinery) and caches it, so the per-process
    cost is proportional to the rows a traversal actually visits, and
    hot loops see plain tuples after first touch.  ``overrides`` (the
    refresh patch) substitutes rebuilt rows; ids at or past the base
    snapshot's node count default to empty rows (appended nodes).
    """

    __slots__ = ("_indptr", "_indices", "_cache", "_overrides", "_base")

    def __init__(
        self,
        store: FlatStore,
        kind: str,
        total: int,
        overrides: Optional[Dict[int, tuple]] = None,
    ) -> None:
        self._indptr = store.ints(kind + "_indptr")
        self._indices = store.ints(kind + "_indices")
        self._base = len(self._indptr) - 1
        self._cache: List[Optional[tuple]] = [None] * total
        self._overrides = overrides or {}

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i: int) -> tuple:
        row = self._cache[i]
        if row is None:
            row = self._overrides.get(i)
            if row is None:
                if i < self._base:
                    row = tuple(self._indices[self._indptr[i] : self._indptr[i + 1]])
                else:
                    row = ()
            self._cache[i] = row
        return row

    def __iter__(self) -> Iterator[tuple]:
        for i in range(len(self._cache)):
            yield self[i]

    def edge_columns(self) -> Tuple[array, array]:
        """Every edge as int32 ``(source id, target id)`` columns in row
        order, read off the flat CSR pair and the overrides: no row is
        decoded into (or cached as) a tuple."""
        indptr, indices, base = self._indptr, self._indices, self._base
        overrides = self._overrides
        lengths = list(map(sub, indptr[1:], indptr))
        lengths.extend(repeat(0, len(self._cache) - base))
        targets = array("i")
        done = 0  # base rows copied (or overridden) so far
        for i in sorted(overrides):
            row = overrides[i]
            lengths[i] = len(row)
            upto = min(i, base)
            if upto > done:
                targets.extend(indices[indptr[done] : indptr[upto]])
            done = max(done, min(i + 1, base))
            targets.extend(row)
        targets.extend(indices[indptr[done] : indptr[base]])
        sources = map(repeat, range(len(lengths)), lengths)
        return array("i", chain.from_iterable(sources)), targets


class _LazyNodeTable:
    """The id -> node key decode table, unpickled on first use."""

    __slots__ = ("_store", "_appended", "_table")

    def __init__(self, store: FlatStore, appended: Optional[List[Node]] = None):
        self._store = store
        self._appended = appended
        self._table: Optional[List[Node]] = None

    def _load(self) -> List[Node]:
        table = self._table
        if table is None:
            table = self._store.obj("nodes")
            if self._appended:
                table = list(table) + list(self._appended)
            self._table = table
        return table

    def __len__(self) -> int:
        return len(self._load())

    def __getitem__(self, i):
        return self._load()[i]

    def __iter__(self):
        return iter(self._load())

    def __add__(self, other):
        return list(self._load()) + list(other)


class _LazyIds(dict):
    """node key -> id, built in one pass on first miss.

    A real ``dict`` subclass so every read path (`[]`, ``get``, ``in``)
    works; population happens at most once per process.
    """

    __slots__ = ("_nodes", "_ready")

    def __init__(self, nodes) -> None:
        super().__init__()
        self._nodes = nodes
        self._ready = False

    def _ensure(self) -> None:
        if not self._ready:
            self.update({node: i for i, node in enumerate(self._nodes)})
            self._ready = True

    def __missing__(self, key):
        if self._ready:
            raise KeyError(key)
        self._ensure()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._ensure()
        return dict.get(self, key, default)

    def __contains__(self, key) -> bool:
        self._ensure()
        return dict.__contains__(self, key)

    def __len__(self) -> int:
        self._ensure()
        return dict.__len__(self)

    def __iter__(self):
        self._ensure()
        return dict.__iter__(self)


class _LazyLabelTable:
    """Per-node label frozensets decoded from the interned label CSR."""

    __slots__ = ("_store", "_cache", "_appended_start", "_appended")

    def __init__(
        self,
        store: FlatStore,
        total: int,
        appended: Optional[List[FrozenSet[str]]] = None,
    ) -> None:
        self._store = store
        self._cache: List[Optional[FrozenSet[str]]] = [None] * total
        self._appended_start = len(store.ints("label_row_indptr")) - 1
        self._appended = appended or []

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i: int) -> FrozenSet[str]:
        labels = self._cache[i]
        if labels is None:
            if i >= self._appended_start:
                labels = self._appended[i - self._appended_start]
            else:
                store = self._store
                names = store.obj("labels")
                indptr = store.ints("label_row_indptr")
                row = store.ints("label_row_indices")[indptr[i] : indptr[i + 1]]
                labels = frozenset(names[j] for j in row)
            self._cache[i] = labels
        return labels

    def __iter__(self):
        for i in range(len(self._cache)):
            yield self[i]


class _LazyAttrTable:
    """Per-node attribute dicts, unpickled as one blob on first use."""

    __slots__ = ("_store", "_appended", "_table", "_total")

    def __init__(
        self, store: FlatStore, total: int, appended: Optional[List[dict]] = None
    ) -> None:
        self._store = store
        self._appended = appended
        self._table: Optional[List[dict]] = None
        self._total = total

    def _load(self) -> List[dict]:
        table = self._table
        if table is None:
            appended = self._appended or []
            if len(self._store.blob("attrs")) == 0:
                table = [{} for _ in range(self._total - len(appended))]
            else:
                table = list(self._store.obj("attrs"))
            table.extend(appended)
            self._table = table
        return table

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, i: int) -> dict:
        return self._load()[i]

    def __iter__(self):
        return iter(self._load())


class _LazyBuckets(dict):
    """label -> sorted id tuple, decoded per label on first lookup.

    The flat form stores every bucket as a **sorted id slice** of one
    indices array; a lookup materializes just that label's slice.
    ``extra`` carries the refresh patch: ids of appended nodes per
    label, concatenated after the base slice (appended ids exceed every
    base id, so the bucket stays sorted).
    """

    __slots__ = ("_store", "_extra", "_ready")

    def __init__(self, store: FlatStore, extra: Optional[Dict[str, tuple]] = None):
        super().__init__()
        self._store = store
        self._extra = extra or {}
        self._ready = False

    def _decode(self, label: str) -> Optional[tuple]:
        store = self._store
        slot = store.obj("label_slots").get(label)
        extra = self._extra.get(label, ())
        if slot is None:
            return tuple(extra) if extra else None
        indptr = store.ints("bucket_indptr")
        bucket = tuple(store.ints("bucket_indices")[indptr[slot] : indptr[slot + 1]])
        return bucket + tuple(extra) if extra else bucket

    def _ensure_all(self) -> None:
        if not self._ready:
            for label in self._store.obj("label_slots"):
                self.get(label)
            for label in self._extra:
                self.get(label)
            self._ready = True

    def __missing__(self, key):
        bucket = self._decode(key)
        if bucket is None:
            raise KeyError(key)
        dict.__setitem__(self, key, bucket)
        return bucket

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        bucket = self._decode(key)
        if bucket is None:
            return default
        dict.__setitem__(self, key, bucket)
        return bucket

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def items(self):
        self._ensure_all()
        return dict.items(self)

    def keys(self):
        self._ensure_all()
        return dict.keys(self)

    def values(self):
        self._ensure_all()
        return dict.values(self)

    def __iter__(self):
        self._ensure_all()
        return dict.__iter__(self)

    def __len__(self) -> int:
        self._ensure_all()
        return dict.__len__(self)


# ----------------------------------------------------------------------
# Snapshot encoding
# ----------------------------------------------------------------------
def encode_snapshot(graph: CompactGraph, backend: Optional[str] = None) -> FlatStore:
    """Pack a snapshot's columns into one flat segment."""
    labels = sorted({label for labels in graph._labels for label in labels})
    slot_of = {label: i for i, label in enumerate(labels)}
    succ_indptr, succ_indices = _pack_csr(graph._succ)
    pred_indptr, pred_indices = _pack_csr(graph._pred)
    label_row_indptr, label_row_indices = _pack_csr(
        sorted(slot_of[l] for l in row) for row in graph._labels
    )
    bucket_indptr, bucket_indices = _pack_csr(
        graph._label_ids.get(label, ()) for label in labels
    )
    attrs_blob = (
        b""
        if not any(graph._attrs)
        else pickle.dumps(list(graph._attrs), protocol=pickle.HIGHEST_PROTOCOL)
    )
    return FlatStore.pack(
        arrays={
            "succ_indptr": succ_indptr,
            "succ_indices": succ_indices,
            "pred_indptr": pred_indptr,
            "pred_indices": pred_indices,
            "label_row_indptr": label_row_indptr,
            "label_row_indices": label_row_indices,
            "bucket_indptr": bucket_indptr,
            "bucket_indices": bucket_indices,
        },
        blobs={
            "labels": pickle.dumps(tuple(labels), protocol=pickle.HIGHEST_PROTOCOL),
            "label_slots": pickle.dumps(slot_of, protocol=pickle.HIGHEST_PROTOCOL),
            "nodes": pickle.dumps(list(graph._nodes), protocol=pickle.HIGHEST_PROTOCOL),
            "attrs": attrs_blob,
        },
        backend=backend,
    )


# ----------------------------------------------------------------------
# SharedCompactGraph
# ----------------------------------------------------------------------
class SharedCompactGraph(CompactGraph):
    """A :class:`CompactGraph` whose columns live in a flat segment.

    In the *creator* process the instance shares the source snapshot's
    materialized lists (same read performance as a plain snapshot) and
    additionally owns a :class:`FlatStore` mirror of them.  Pickling
    ships only the store handle, a small meta tuple and -- after
    refreshes -- the patch overlay, so a process-pool worker *attaches*
    and decodes lazily rather than unpickling ``O(|G|)`` objects.

    The snapshot token is part of the meta, so extensions shipped
    alongside the snapshot keep recognising its id space, and the
    MatchJoin fast paths engage in workers exactly as in the parent.
    """

    __slots__ = ("_flat", "_patch")

    # -- construction --------------------------------------------------
    @classmethod
    def share(cls, graph: CompactGraph) -> "SharedCompactGraph":
        """The shared form of ``graph`` (idempotent for shared inputs)."""
        if isinstance(graph, SharedCompactGraph):
            return graph
        store = encode_snapshot(graph)
        shared = cls.__new__(cls)
        for slot in CompactGraph.__slots__:
            setattr(shared, slot, getattr(graph, slot))
        shared._flat = store
        shared._patch = None
        return shared

    @property
    def flat_store(self) -> FlatStore:
        """The backing store (segment + header)."""
        return self._flat

    def flat_table_bytes(self) -> Dict[str, int]:
        """Per-table byte footprint of the flat layout."""
        return self._flat.table_bytes()

    def edge_columns(self) -> Tuple[array, array]:
        """As on a plain snapshot; an attached one reads them off the
        segment instead of decoding every adjacency row."""
        if self._edge_columns is None and isinstance(self._succ, _LazyRows):
            self._edge_columns = self._succ.edge_columns()
        return super().edge_columns()

    # -- zero-copy pickling --------------------------------------------
    def __reduce__(self):
        meta = (
            self.num_nodes,
            self._num_edges,
            self.snapshot_version,
            self.snapshot_token,
            self.extends_token,
        )
        return (_attach_snapshot, (self._flat, self._patch, meta))

    # -- refresh: keep the base segment, ship a patch overlay ----------
    @classmethod
    def refreshed(
        cls, old: "SharedCompactGraph", graph, version: int, ops
    ) -> CompactGraph:
        """Refresh a shared snapshot without re-encoding the segment.

        The plain refresh runs first (unchanged row objects stay
        shared, ids stay stable); the delta against the *base segment*
        -- rebuilt adjacency rows, appended node columns, per-label
        bucket growth -- is folded into the patch overlay that rides in
        the pickle.  One segment therefore serves the whole refresh
        chain, and it is unlinked only when the last generation
        referencing it is dropped.  When the accumulated patch stops
        being small relative to the base, the chain re-encodes into a
        fresh segment instead (the patch would otherwise grow past the
        ship-cost win the segment exists for).
        """
        plain = CompactGraph.refreshed(old, graph, version, ops)
        base_n = len(old._flat.ints("succ_indptr")) - 1
        previous = old._patch or _EMPTY_PATCH
        ids = plain._ids
        succ_over = dict(previous["succ"])
        pred_over = dict(previous["pred"])
        for node in {s for _, s, _ in ops}:
            i = ids[node]
            succ_over[i] = plain._succ[i]
        for node in {t for _, _, t in ops}:
            i = ids[node]
            pred_over[i] = plain._pred[i]
        appended_nodes = list(plain._nodes[base_n:])
        patch = {
            "succ": succ_over,
            "pred": pred_over,
            "nodes": appended_nodes,
            "labels": [plain._labels[i] for i in range(base_n, plain.num_nodes)],
            "attrs": [plain._attrs[i] for i in range(base_n, plain.num_nodes)],
            "buckets": {
                label: tuple(i for i in bucket if i >= base_n)
                for label, bucket in plain._label_ids.items()
                if bucket and bucket[-1] >= base_n
            },
        }
        patch_rows = len(succ_over) + len(pred_over) + len(appended_nodes)
        if patch_rows > max(64, base_n // 4):
            return cls.share(plain)  # re-encode: patch outgrew the base
        shared = cls.__new__(cls)
        for slot in CompactGraph.__slots__:
            setattr(shared, slot, getattr(plain, slot))
        shared._flat = old._flat
        shared._patch = patch
        return shared


_EMPTY_PATCH = {"succ": {}, "pred": {}, "nodes": [], "labels": [], "attrs": [], "buckets": {}}


def _attach_snapshot(store: FlatStore, patch, meta) -> SharedCompactGraph:
    """Worker-side reconstruction: attach and decode lazily."""
    num_nodes, num_edges, version, token, extends = meta
    patch = patch or _EMPTY_PATCH
    shared = SharedCompactGraph.__new__(SharedCompactGraph)
    nodes = _LazyNodeTable(store, patch["nodes"] or None)
    shared._nodes = nodes
    shared._ids = _LazyIds(nodes)
    shared._succ = _LazyRows(store, "succ", num_nodes, patch["succ"])
    shared._pred = _LazyRows(store, "pred", num_nodes, patch["pred"])
    shared._labels = _LazyLabelTable(store, num_nodes, patch["labels"] or None)
    shared._attrs = _LazyAttrTable(store, num_nodes, patch["attrs"] or None)
    shared._label_ids = _LazyBuckets(store, patch["buckets"] or None)
    shared._succ_sets = [None] * num_nodes
    shared._pred_sets = [None] * num_nodes
    shared._num_edges = num_edges
    shared._columns = {}
    shared._edge_columns = None
    shared._array_cache = {}
    shared.snapshot_version = version
    shared.snapshot_token = token
    shared.extends_token = extends
    shared._flat = store
    shared._patch = patch if patch is not _EMPTY_PATCH else None
    return shared
