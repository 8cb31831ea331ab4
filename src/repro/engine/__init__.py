"""The engine layer: planned, cached view-based answering.

Composes the paper's algorithms (containment, view selection,
MatchJoin) into a deployable subsystem:

* :class:`QueryEngine` -- owns a view catalog, plans and answers
  queries in batches, follows maintenance updates;
* :class:`QueryPlan` / :class:`ExecutionStats` -- inspectable planner
  output and per-query telemetry;
* :class:`LRUCache` / :class:`CacheStats` -- the caching primitives;
* :func:`pattern_key` -- the structural query fingerprint the caches
  key on.
"""

from repro import _lazy_exports

_EXPORTS = {
    "CacheStats": "repro.engine.cache",
    "DIRECT": "repro.engine.plan",
    "ExecutionStats": "repro.engine.plan",
    "LRUCache": "repro.engine.cache",
    "MATCHJOIN": "repro.engine.plan",
    "QueryEngine": "repro.engine.engine",
    "QueryPlan": "repro.engine.plan",
    "evaluate": "repro.engine.executor",
    "pattern_key": "repro.engine.plan",
    "run_plans": "repro.engine.executor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
