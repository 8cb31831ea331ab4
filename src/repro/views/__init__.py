"""Views: definitions, materialized extensions, caching and maintenance.

A *view definition* ``V`` is itself a (bounded) graph pattern query; its
*extension* ``V(G)`` in a data graph is the query result, kept as
per-view-edge match sets (Section II-B).  For bounded views the
extension also carries the distance index ``I(V)`` of Section VI-A:
the actual distance of every materialized pair, so that BMatchJoin can
filter pairs against each query edge's own bound in O(1).

* :class:`~repro.views.view.ViewDefinition`, :func:`~repro.views.view.materialize`
* :class:`~repro.views.storage.ViewSet` -- a named cache of definitions
  and extensions with per-view version stamps and size accounting (for
  the ``|V(G)|/|G|`` fractions the paper reports).
* :mod:`~repro.views.maintenance` -- the delta pipeline's view layer:
  :class:`~repro.views.maintenance.Delta` batches applied by an
  :class:`~repro.views.maintenance.IncrementalViewSet` to the graph it
  maintains in place (an engine attaches it and owns the cursor), incremental
  deletions *and* affected-area-bounded incremental insertions (in the
  spirit of the paper's [15]), per-view change accounting.
* :mod:`~repro.views.selection` -- workload-driven view selection
  (future-work item no. 1 in Section VIII).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Delta": "repro.views.maintenance",
    "MaterializedView": "repro.views.view",
    "ViewDefinition": "repro.views.view",
    "ViewSet": "repro.views.storage",
    "bind_extension": "repro.views.view",
    "materialize": "repro.views.view",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
