"""The engine layer: planned, cached, parallel view-based answering.

Composes the paper's algorithms (containment, view selection,
MatchJoin) into a deployable subsystem:

* :class:`QueryEngine` -- owns a view catalog, plans and answers
  queries, batches work across processes, follows maintenance updates;
* :class:`QueryPlan` / :class:`ExecutionStats` -- inspectable planner
  output and per-query telemetry;
* :class:`CostModel` / :class:`CandidateCost` -- the calibrated cost
  model the adaptive planner prices candidates with;
* :class:`WorkloadAdvisor` -- workload-driven auto-materialization
  under a byte budget;
* :class:`LRUCache` / :class:`CacheStats` -- the caching primitives;
* :func:`pattern_key` -- the structural query fingerprint the caches
  key on.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AdvisorReport": "repro.engine.advisor",
    "CacheStats": "repro.engine.cache",
    "CandidateCost": "repro.engine.cost",
    "CostModel": "repro.engine.cost",
    "DIRECT": "repro.engine.plan",
    "EXECUTORS": "repro.engine.executor",
    "EvaluationSpec": "repro.engine.executor",
    "ExecutionStats": "repro.engine.plan",
    "HYBRID": "repro.engine.plan",
    "LRUCache": "repro.engine.cache",
    "MATCHJOIN": "repro.engine.plan",
    "PLANNERS": "repro.engine.plan",
    "QueryEngine": "repro.engine.engine",
    "QueryPlan": "repro.engine.plan",
    "ShipStats": "repro.engine.executor",
    "ViewScore": "repro.engine.advisor",
    "WorkloadAdvisor": "repro.engine.advisor",
    "evaluate_spec": "repro.engine.executor",
    "pattern_key": "repro.engine.plan",
    "run_specs": "repro.engine.executor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
