"""A low-overhead metrics registry: counters, gauges, histograms.

The engine spans seven layers (planner -> caches -> MatchJoin kernels
-> shard fixpoints -> maintenance -> flat buffers -> asyncio server) and
every one of them has quantities worth watching continuously -- the
paper's own experimental claims (view-based evaluation ~9.7x faster,
views at 4-15% of ``|G|``) are per-query, per-epoch measurements.  This
module is the shared vocabulary those layers record into:

* :class:`Counter` -- monotonically increasing totals (plans chosen,
  fixpoint sweeps, requests shed);
* :class:`Gauge` -- last-written values (current epoch, extension
  sizes);
* :class:`Histogram` -- distributions over **fixed log-scale buckets**
  (query latencies, delta sizes); fixed boundaries keep ``observe`` at
  one ``bisect`` call and make snapshots mergeable across processes.

Instruments live in a :class:`MetricsRegistry`.  There is one
process-global default registry (:func:`get_registry`) used by the
free-function kernels, and components that want isolation (an engine, a
server, a test) inject their own.  A registry built with
``enabled=False`` -- or flipped off via :meth:`MetricsRegistry.disable`
-- hands out shared no-op instruments whose methods discard their
arguments; the hot paths aggregate locally and record once per call, so
either mode stays within the <5% overhead budget asserted by
``benchmarks/bench_obs.py``.

Thread safety: instrument creation and snapshots take the registry
lock; ``inc``/``set``/``observe`` take the per-instrument lock, so
totals survive concurrent readers and epoch swaps without loss.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Version of the snapshot schema (breaking layout changes bump this).
SCHEMA_VERSION = 1

LabelItems = Tuple[Tuple[str, str], ...]


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-scale bucket boundaries: ``start * factor**i``.

    The boundaries are upper bounds; an observation lands in the first
    bucket whose boundary is >= the value, or the implicit ``+Inf``
    overflow bucket past the last one.
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default duration buckets: 1us .. ~268s in powers of 4 (15 buckets).
DURATION_BUCKETS = log_buckets(1e-6, 4.0, 15)

#: Default size buckets: 1 .. ~2.6e8 in powers of 4 (15 buckets).
SIZE_BUCKETS = log_buckets(1.0, 4.0, 15)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-written value (settable both ways)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A distribution over fixed log-scale buckets.

    ``boundaries`` are inclusive upper bounds; one extra overflow
    bucket catches everything past the last boundary.  ``observe`` is
    one ``bisect`` plus two adds under the instrument lock.
    """

    __slots__ = ("name", "labels", "boundaries", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        boundaries: Sequence[float] = DURATION_BUCKETS,
    ) -> None:
        bounds = tuple(boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must strictly increase: {bounds}")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_right(self.boundaries, value)
        if index > 0 and self.boundaries[index - 1] == value:
            index -= 1  # boundaries are inclusive upper bounds
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (last entry is the +Inf overflow)."""
        with self._lock:
            return list(self._counts)


class _NullInstrument:
    """The shared do-nothing instrument a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def bucket_counts(self) -> List[int]:
        return []


_NULL = _NullInstrument()


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A named collection of instruments, snapshot-able as one report.

    One instrument exists per ``(name, labels)`` pair; repeated lookups
    return the same object, so hot paths may cache the instrument once
    and skip the registry dict entirely.  ``enabled=False`` (or
    :meth:`disable`) makes every lookup return the shared no-op
    instrument -- already-handed-out real instruments keep recording,
    so flip the switch before wiring components up.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._enabled = enabled
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------------
    # Mode
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------------
    # Instrument lookup
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object):
        if not self._enabled:
            return _NULL
        key = (name, _label_items(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(*key))
        return counter

    def gauge(self, name: str, **labels: object):
        if not self._enabled:
            return _NULL
        key = (name, _label_items(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(*key))
        return gauge

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        **labels: object,
    ):
        if not self._enabled:
            return _NULL
        key = (name, _label_items(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key,
                    Histogram(
                        key[0],
                        key[1],
                        boundaries if boundaries is not None else DURATION_BUCKETS,
                    ),
                )
        return histogram

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A JSON-ready, versioned report of every instrument.

        Labelled series group under their metric name as
        ``{rendered labels: value}`` (the empty-label series renders as
        ``""``), so the report stays stable as label sets grow.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        report: Dict = {
            "version": SCHEMA_VERSION,
            "enabled": self._enabled,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for counter in counters:
            series = report["counters"].setdefault(counter.name, {})
            series[render_labels(counter.labels)] = counter.value
        for gauge in gauges:
            series = report["gauges"].setdefault(gauge.name, {})
            series[render_labels(gauge.labels)] = gauge.value
        for histogram in histograms:
            series = report["histograms"].setdefault(histogram.name, {})
            series[render_labels(histogram.labels)] = {
                "count": histogram.count,
                "sum": histogram.sum,
                "boundaries": list(histogram.boundaries),
                "buckets": histogram.bucket_counts(),
            }
        return report

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Counters render as ``name_total``-style samples with their
        labels, histograms as cumulative ``_bucket{le=...}`` series
        plus ``_sum``/``_count`` -- close enough to the convention that
        standard scrapers ingest it unmodified.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        lines: List[str] = []
        typed: Set[str] = set()

        def announce(name: str, kind: str) -> None:
            # One TYPE comment per metric family, not per labeled series.
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for counter in sorted(counters, key=lambda c: (c.name, c.labels)):
            announce(counter.name, "counter")
            lines.append(
                f"{counter.name}{render_labels(counter.labels)} {counter.value}"
            )
        for gauge in sorted(gauges, key=lambda g: (g.name, g.labels)):
            announce(gauge.name, "gauge")
            lines.append(
                f"{gauge.name}{render_labels(gauge.labels)} {_fmt(gauge.value)}"
            )
        for histogram in sorted(histograms, key=lambda h: (h.name, h.labels)):
            announce(histogram.name, "histogram")
            cumulative = 0
            counts = histogram.bucket_counts()
            for boundary, count in zip(histogram.boundaries, counts):
                cumulative += count
                labels = histogram.labels + (("le", _fmt(boundary)),)
                lines.append(
                    f"{histogram.name}_bucket{render_labels(labels)} {cumulative}"
                )
            labels = histogram.labels + (("le", "+Inf"),)
            lines.append(
                f"{histogram.name}_bucket{render_labels(labels)} "
                f"{cumulative + counts[-1]}"
            )
            lines.append(
                f"{histogram.name}_sum{render_labels(histogram.labels)} "
                f"{_fmt(histogram.sum)}"
            )
            lines.append(
                f"{histogram.name}_count{render_labels(histogram.labels)} "
                f"{histogram.count}"
            )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every instrument (tests; live handles keep counting but
        leave the registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({'enabled' if self._enabled else 'disabled'}, "
            f"{len(self._counters)} counters, {len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )


def render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    """``{k="v",...}`` (Prometheus style), or ``""`` with no labels."""
    items = list(labels)
    if not items:
        return ""
    rendered = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + rendered + "}"


def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# ----------------------------------------------------------------------
# The process-global default registry
# ----------------------------------------------------------------------
_default = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry (kernels record here)."""
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global default; returns the previous one.

    Tests use this to isolate assertions; embedders use it to silence
    the library wholesale (``set_registry(MetricsRegistry(enabled=
    False))``).
    """
    global _default
    with _default_lock:
        previous = _default
        _default = registry
    return previous
