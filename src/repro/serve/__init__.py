"""The serving layer: ``repro serve`` and its in-process machinery.

Public surface:

* :class:`~repro.serve.server.QueryServer` -- asyncio service over a
  :class:`~repro.engine.engine.QueryEngine`: concurrent readers on
  immutable epochs, epoch-based snapshot swap on maintenance, request
  coalescing, admission control, a ``stats()`` view;
* :class:`~repro.serve.epoch.Epoch` /
  :class:`~repro.serve.epoch.SnapshotRegistry` -- the refcounted epoch
  lifecycle (pin -> evaluate -> release; swap -> retire -> drain);
* :func:`~repro.serve.protocol.serve_tcp` -- the JSON-lines TCP front
  end the ``repro serve`` CLI subcommand exposes (``query`` replies are
  spliced from cached fragments by :mod:`repro.serve.wire`);
* :class:`~repro.serve.metrics_http.MetricsServer` -- the optional
  Prometheus-style ``/metrics`` endpoint (``repro serve
  --metrics-port``).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Epoch": "repro.serve.epoch",
    "MetricsServer": "repro.serve.metrics_http",
    "QueryServer": "repro.serve.server",
    "ServedAnswer": "repro.serve.server",
    "SnapshotRegistry": "repro.serve.epoch",
    "UpdateOutcome": "repro.serve.server",
    "handle_connection": "repro.serve.protocol",
    "serve_tcp": "repro.serve.protocol",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
