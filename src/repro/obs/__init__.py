"""Unified observability: metrics registry, trace spans, logging setup.

Three cooperating pieces (each importable on its own):

* :mod:`repro.obs.metrics` -- counters / gauges / log-scale-bucket
  histograms in a :class:`MetricsRegistry`; a process-global default
  for free-function kernels plus injectable per-engine registries, and
  a no-op mode for zero-cost disablement;
* :mod:`repro.obs.trace` -- ``span()`` context managers with
  contextvars nesting, explicit propagation across thread pools
  (:func:`attach`) and process pools (:func:`remote_span` +
  :class:`SpanRecord`), a :class:`TraceCollector` ring buffer and
  slow-query log;
* :mod:`repro.obs.logsetup` -- stdlib-logging policy: ``repro.*``
  module loggers everywhere, structured formatter installed only by
  applications (``repro serve --log-level``).

The engine's plan-choice records (:class:`repro.engine.plan.
PlanChoiceRecord`) round out the layer: per-query strategy decisions
with the measured inputs ROADMAP item 3's cost-based planner trains on.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Counter": "repro.obs.metrics",
    "DURATION_BUCKETS": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "SIZE_BUCKETS": "repro.obs.metrics",
    "Span": "repro.obs.trace",
    "SpanRecord": "repro.obs.trace",
    "TraceCollector": "repro.obs.trace",
    "attach": "repro.obs.trace",
    "current_span": "repro.obs.trace",
    "current_span_id": "repro.obs.trace",
    "format_span_tree": "repro.obs.trace",
    "get_registry": "repro.obs.metrics",
    "log_buckets": "repro.obs.metrics",
    "remote_span": "repro.obs.trace",
    "root_span": "repro.obs.trace",
    "set_registry": "repro.obs.metrics",
    "span": "repro.obs.trace",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
