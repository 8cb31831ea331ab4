"""Flat-buffer storage core: named tables in one byte segment.

The paper's complexity bounds (Theorems 1-3 and the MatchJoin algorithm
of Section V) assume an indexed, array-addressable graph.  A
:class:`~repro.graph.compact.CompactGraph` keeps its CSR tables --
``(indptr, indices)`` pairs of 64-bit ints for adjacency, label rows and
label buckets, plus pickled blobs for node keys and attributes once it
is saved -- in one :class:`FlatStore`: the tables packed into **one
byte segment** behind a small header (``{table: (kind, offset,
nbytes)}``).  A segment is backed one of two ways:

* ``bytes`` -- a private in-process ``bytearray``, which is what
  :meth:`FlatStore.pack` builds;
* ``file`` -- a **versioned on-disk segment** (fixed
  magic/version/checksum header, payload, then the pickled table
  directory as a trailer) mapped read-only via ``mmap``, which is what
  makes snapshots durable: :meth:`FlatStore.save` writes one,
  :meth:`FlatStore.open` maps it back without rebuilding anything.

A store pickles as its segment's handle: a file-backed one as its path,
a ``bytes`` one as its payload.  A mapping is closed when the last
reference to its segment drops; nothing here ever deletes a file.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import weakref
import zlib
from array import array
from typing import Dict, Optional, Tuple

#: Nothing reads this environment variable any more; the name stays
#: importable for ``perf/harness.py`` until ROADMAP item 2(d).
BACKEND_ENV = "REPRO_FLAT_BACKEND"


def __getattr__(name: str):
    # ``SharedCompactGraph`` is ``CompactGraph`` (its ``share`` returns
    # its argument), importable for ``perf/batch.py`` until ROADMAP
    # item 2(d); resolved lazily, as compact.py imports this module.
    if name == "SharedCompactGraph":
        from repro.graph.compact import CompactGraph

        return CompactGraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# ----------------------------------------------------------------------
# Segment: one byte region (a private bytearray or a mapped file)
# ----------------------------------------------------------------------
class Segment:
    """One byte region: a private ``bytearray``, or a read-only ``mmap``
    of the sealed segment file at ``path`` (:meth:`attach_file`), which
    is unmapped when the last reference drops."""

    __slots__ = ("nbytes", "_payload", "_path", "__weakref__")

    def __init__(self, payload, nbytes: int, path: Optional[str] = None) -> None:
        self.nbytes = nbytes
        self._payload = payload
        self._path = path

    @classmethod
    def attach_file(cls, path: str, nbytes: int = -1) -> Tuple["Segment", dict]:
        """Map a sealed segment file read-only; returns it with its table
        directory.  ``nbytes >= 0`` is the payload size a pickled handle
        expects."""
        payload_nbytes, _, table_header, _ = _read_segment_header(path)
        if nbytes >= 0 and nbytes != payload_nbytes:
            raise SegmentFormatError(
                f"{path}: payload is {payload_nbytes} bytes, handle expected {nbytes}"
            )
        with open(path, "rb") as fh:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        segment = cls(mm, payload_nbytes, path)
        weakref.finalize(segment, _close_mmap, mm)
        return segment, table_header

    @property
    def kind(self) -> str:
        """``"file"`` for a mapped segment file, ``"bytes"`` otherwise."""
        return "bytes" if self._path is None else "file"

    @property
    def buf(self) -> memoryview:
        view = memoryview(self._payload)
        return view if self._path is None else view[_FILE_HEADER_SIZE:][: self.nbytes]

    @property
    def on_disk_bytes(self) -> int:
        """File footprint (header + payload + directory); 0 unless the
        segment is a mapped file."""
        if self._path is None:
            return 0
        try:
            return os.path.getsize(self._path)
        except OSError:  # pragma: no cover - racing deletion
            return 0

    def handle(self) -> Tuple[str, object]:
        """The picklable identity of this segment: ``("file", path)``
        for a mapped file, ``("bytes", payload)`` otherwise."""
        if self._path is None:
            return ("bytes", bytes(self._payload))
        return ("file", self._path)

    @classmethod
    def from_handle(cls, kind: str, value, nbytes: int) -> "Segment":
        if kind == "file":
            return cls.attach_file(value, nbytes)[0]
        return cls(bytearray(value), nbytes)

    def __repr__(self) -> str:
        return f"Segment({self._path or '<bytes>'}, {self.nbytes}B, {self.kind})"


def _close_mmap(mm) -> None:
    try:
        mm.close()
    except BufferError:
        # Exported row views keep the mapping alive; it is reclaimed
        # when the last view dies or the process exits.
        pass


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
    per store via :meth:`obj`.

    The header (``{name: (kind, offset, nbytes)}``) is *not* part of the
    payload: it rides in the pickle of whatever object owns the store,
    and in a saved file's trailer.
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
    def pack(cls, arrays: Dict[str, array], blobs: Dict[str, bytes]) -> "FlatStore":
        """Lay the tables out in one fresh in-process segment."""
        header: Dict[str, Tuple[str, int, int]] = {}
        offset = 0
        for name, arr in arrays.items():
            nbytes = len(arr) * _ITEMSIZE
            header[name] = ("q", offset, nbytes)
            offset += nbytes  # arrays first: offsets stay 8-aligned
        for name, blob in blobs.items():
            header[name] = ("blob", offset, len(blob))
            offset += len(blob)
        payload = bytearray(offset)
        buf = memoryview(payload)
        for name, table in [*arrays.items(), *blobs.items()]:
            _, start, nbytes = header[name]
            if nbytes:
                buf[start : start + nbytes] = memoryview(table).cast("B")
        buf.release()
        return cls(Segment(payload, offset), header)

    # -- durable segments ----------------------------------------------
    def save(self, path) -> int:
        """Write this store as a sealed, fsynced segment file; returns
        the file size.  The table directory rides in the file (trailer),
        so :meth:`open` needs nothing but the path."""
        path = os.fspath(path)
        dir_blob = pickle.dumps(self.header, protocol=pickle.HIGHEST_PROTOCOL)
        payload = self.segment.buf
        header = _FILE_HEADER.pack(
            SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION, 0, self.segment.nbytes,
            zlib.crc32(payload), zlib.crc32(dir_blob), len(dir_blob),
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
        """
        path = os.fspath(path)
        if verify:
            verify_segment_file(path)
        return cls(*Segment.attach_file(path))

    # -- pickling: the segment's handle + header -----------------------
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
        """Unpickle a blob table (memoized per store)."""
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
        return self.segment.kind

    @property
    def on_disk_bytes(self) -> int:
        return self.segment.on_disk_bytes

    def __repr__(self) -> str:
        return f"FlatStore({len(self.header)} tables, {self.total_bytes}B, {self.backend})"


def _attach_store(kind, value, nbytes, header) -> FlatStore:
    """Unpickle hook (see :meth:`FlatStore.__reduce__`)."""
    return FlatStore(Segment.from_handle(kind, value, nbytes), header)
