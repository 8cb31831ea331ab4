"""Cross-layer trace spans with explicit propagation.

A *span* is one timed phase of a request -- ``plan``, ``evaluate``, a
shard-local fixpoint wave -- with monotonic timings, free-form
attributes, and parent/child nesting.  A finished root span is the
complete story of one query: plan -> cache -> evaluate -> per-shard
waves, which is exactly what ``repro trace`` pretty-prints and what the
serving layer's slow-query log retains.

Propagation contract (two hops, each explicit):

* **same thread** -- nesting rides a :mod:`contextvars` variable:
  :func:`span` attaches to the current span automatically and is a
  **pass-through no-op when no span is active** (one context-var read),
  so instrumented kernels cost nothing in untraced runs;
* **thread pools** -- executors do not inherit context; the submitting
  side captures :func:`current_span` and the worker re-enters it with
  :func:`attach` (span objects are shared memory, children appends are
  GIL-atomic).

Finished roots land in a :class:`TraceCollector`: a bounded ring buffer
of recent traces plus a top-K-by-duration slow-query log, both
queryable over the serving protocol.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappush, heappushpop
from time import perf_counter
from typing import Dict, List, Optional, Tuple

_ids = itertools.count(1)
_current: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


def _new_span_id() -> str:
    # next() on an itertools.count is atomic under the GIL.
    return f"{next(_ids):x}"


class Span:
    """One timed phase: name, attributes, children, monotonic timing."""

    __slots__ = (
        "span_id",
        "name",
        "attrs",
        "parent",
        "children",
        "started",
        "ended",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = _new_span_id()
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.parent = parent
        self.children: List["Span"] = []
        self.started = perf_counter()
        self.ended: Optional[float] = None
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Elapsed seconds (to now while the span is still open)."""
        end = self.ended if self.ended is not None else perf_counter()
        return end - self.started

    @property
    def finished(self) -> bool:
        return self.ended is not None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes mid-flight (returns self for chaining)."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> "Span":
        if self.ended is None:
            self.ended = perf_counter()
        return self

    # ------------------------------------------------------------------
    def to_dict(self, _base: Optional[float] = None) -> Dict:
        """A JSON-ready tree (offsets relative to this subtree's root)."""
        base = self.started if _base is None else _base
        return {
            "name": self.name,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
            "start_ms": (self.started - base) * 1e3,
            "duration_ms": self.duration * 1e3,
            "children": [child.to_dict(base) for child in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.2f} ms" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


# ----------------------------------------------------------------------
# Context plumbing
# ----------------------------------------------------------------------
def current_span() -> Optional[Span]:
    """The active span of this thread/task context (``None`` untraced)."""
    return _current.get()


def current_span_id() -> Optional[str]:
    """The active span's id (``None`` untraced)."""
    span = _current.get()
    return span.span_id if span is not None else None


@contextmanager
def span(name: str, **attrs: object):
    """Open a child of the current span; **no-op when none is active**.

    Yields the new :class:`Span` (or ``None`` on the pass-through
    path).  This is the only entry point hot kernels use, so untraced
    evaluation pays one context-var read and a ``None`` check.
    """
    parent = _current.get()
    if parent is None:
        yield None
        return
    child = Span(name, parent=parent, attrs=attrs)
    token = _current.set(child)
    try:
        yield child
    finally:
        child.finish()
        _current.reset(token)


@contextmanager
def root_span(
    name: str,
    collector: Optional["TraceCollector"] = None,
    **attrs: object,
):
    """Open a trace root (always records, regardless of context).

    On exit the root is finished and handed to ``collector`` (when
    given) -- the ring buffer + slow-log entry point the serving layer
    and ``repro trace`` use.
    """
    root = Span(name, parent=None, attrs=attrs)
    token = _current.set(root)
    try:
        yield root
    finally:
        root.finish()
        _current.reset(token)
        if collector is not None:
            collector.record(root)


@contextmanager
def attach(parent: Optional[Span]):
    """Re-enter ``parent`` as the current span in *this* thread.

    Thread pools do not inherit context: the submitting side captures
    :func:`current_span` and the worker function wraps its body in
    ``with attach(captured): ...`` so nested :func:`span` calls land
    under the right parent.  ``attach(None)`` is a no-op, keeping call
    sites unconditional.
    """
    if parent is None:
        yield None
        return
    token = _current.set(parent)
    try:
        yield parent
    finally:
        _current.reset(token)


# ----------------------------------------------------------------------
# Collection: recent traces + slow-query log
# ----------------------------------------------------------------------
class TraceCollector:
    """Bounded retention of finished root spans.

    ``capacity`` recent traces are kept in arrival order (a ring
    buffer); the ``slow_capacity`` slowest are kept by duration (a
    min-heap, so admission is O(log K) per trace).  Both store
    JSON-ready dicts -- retention must not pin live span graphs (and
    their attribute objects) in memory.
    """

    def __init__(self, capacity: int = 64, slow_capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_capacity < 0:
            raise ValueError(f"slow_capacity must be >= 0, got {slow_capacity}")
        self._lock = threading.Lock()
        self._capacity = capacity
        self._slow_capacity = slow_capacity
        self._recent: List[Dict] = []
        self._next = 0  # ring cursor
        self._seq = 0
        self._slow: List[Tuple[float, int, Dict]] = []  # min-heap
        self._recorded = 0

    @property
    def recorded(self) -> int:
        """Total roots ever recorded (survives ring eviction)."""
        return self._recorded

    def record(self, root: Span) -> None:
        entry = root.to_dict()
        with self._lock:
            self._recorded += 1
            self._seq += 1
            if len(self._recent) < self._capacity:
                self._recent.append(entry)
            else:
                self._recent[self._next] = entry
                self._next = (self._next + 1) % self._capacity
            if self._slow_capacity:
                item = (entry["duration_ms"], self._seq, entry)
                if len(self._slow) < self._slow_capacity:
                    heappush(self._slow, item)
                else:
                    heappushpop(self._slow, item)

    def recent(self, limit: Optional[int] = None) -> List[Dict]:
        """Most recent traces, newest first."""
        with self._lock:
            ordered = self._recent[self._next :] + self._recent[: self._next]
        ordered.reverse()
        return ordered[:limit] if limit is not None else ordered

    def slowest(self, limit: Optional[int] = None) -> List[Dict]:
        """The slow-query log: retained roots, slowest first."""
        with self._lock:
            ranked = sorted(self._slow, key=lambda item: (-item[0], item[1]))
        entries = [entry for _, _, entry in ranked]
        return entries[:limit] if limit is not None else entries

    def clear(self) -> None:
        with self._lock:
            self._recent = []
            self._next = 0
            self._slow = []

    def __repr__(self) -> str:
        return (
            f"TraceCollector({len(self._recent)}/{self._capacity} recent, "
            f"{len(self._slow)}/{self._slow_capacity} slow, "
            f"{self._recorded} recorded)"
        )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def format_span_tree(root: Dict) -> str:
    """Pretty-print a span dict tree (``repro trace`` text output)."""
    lines: List[str] = []
    _format_into(root, "", "", lines)
    return "\n".join(lines)


def _format_into(node: Dict, prefix: str, child_prefix: str, lines: List[str]) -> None:
    attrs = " ".join(f"{k}={v}" for k, v in sorted(node["attrs"].items()))
    label = f"{node['name']} ({node['duration_ms']:.2f} ms)"
    lines.append(prefix + label + (f"  {attrs}" if attrs else ""))
    children = node["children"]
    for index, child in enumerate(children):
        last = index == len(children) - 1
        branch = "`- " if last else "|- "
        extend = "   " if last else "|  "
        _format_into(child, child_prefix + branch, child_prefix + extend, lines)
