"""Query plans: the inspectable outcome of the engine's planner.

The paper's pipeline (Section II-B) has three stages -- decide
``Q ⊑ V`` (Theorem 3), select views (Theorems 5/6), evaluate MatchJoin
(Fig. 2) -- and a deployment runs them for every incoming query.  The
planner factors the first two stages out into a :class:`QueryPlan` that
is computed once per (query shape, selection, view-cache version) and
can be inspected and cached.

A plan chooses between two strategies, by Theorem 1's binary rule:

* ``"matchjoin"`` -- ``Q ⊑ V`` holds: evaluate from the materialized
  extensions only, never touching ``G`` (Theorem 1).
* ``"direct"`` -- fall back to the simulation baseline ``Match`` on
  the data graph (the query is not contained, has isolated nodes --
  which view extensions cannot cover -- or needs an extension the
  state cannot build).

:func:`pattern_key` provides the structural fingerprint used as the
cache key; two queries with equal fingerprints have identical results
on every graph and view cache.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from repro.core.containment import Containment
from repro.graph.pattern import BoundedPattern, Pattern
from repro.obs import trace
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry

PatternKey = Tuple[Hashable, ...]

#: Plan strategies.
MATCHJOIN = "matchjoin"
DIRECT = "direct"

#: Reasons the planner falls back to the direct strategy.  The last
#: one is for a state that cannot materialize (a views-only engine):
#: ``Q ⊑ V`` holds but a needed extension is absent or stale.
REASON_NOT_CONTAINED = "not-contained"
REASON_ISOLATED_NODES = "isolated-nodes"
REASON_UNMATERIALIZED = "unmaterialized"


def pattern_key(query: Pattern) -> PatternKey:
    """A canonical, hashable fingerprint of a (bounded) pattern.

    Covers node identities, their search conditions (via
    ``Condition.key()``), the edge set, and -- for bounded patterns
    (Section VI) -- every edge bound.  Queries with equal keys are the
    same query, so containment decisions and answers may be shared
    between them.
    """
    bounded = isinstance(query, BoundedPattern)
    nodes = tuple(
        sorted((repr(node), repr(query.condition(node).key())) for node in query.nodes())
    )
    edges = tuple(
        sorted(
            (
                repr(edge[0]),
                repr(edge[1]),
                repr(query.bound(edge)) if bounded else "1",
            )
            for edge in query.edges()
        )
    )
    return ("bounded" if bounded else "plain", nodes, edges)


@dataclass(frozen=True)
class QueryPlan:
    """An evaluation plan for one pattern query against a view cache.

    Attributes
    ----------
    query:
        The planned :class:`Pattern` / :class:`BoundedPattern`.
    strategy:
        ``"matchjoin"`` (answer from views, Theorem 1) or ``"direct"``
        (fallback to ``Match`` on ``G``).
    selection:
        The view-selection policy the planner ran: ``"all"``
        (algorithm ``contain``), ``"minimal"`` (Fig. 5) or
        ``"minimum"`` (greedy set-cover).
    containment:
        The :class:`Containment` decision, λ mapping included.  Present
        for both strategies (for ``"direct"`` it records *why* views
        were insufficient via ``uncovered``).
    views_used:
        Names of the views MatchJoin will read; empty for ``"direct"``.
    bounded:
        Whether the bounded machinery (Section VI) is engaged -- true
        when the query or any view is bounded.
    cache_key:
        The answer-cache key, stamped from the planning state the plan
        was made on (the live catalog, or an epoch's checkpoint):
        ``(pattern fingerprint, selection, definitions version, key
        material)`` where the key material is the per-view version
        vector of ``views_used`` for MatchJoin plans and the graph's
        mutation version for direct plans -- so a maintenance update
        only re-keys the answers whose inputs it touched.
    containment_cached:
        True when the containment decision was served from the
        engine's decision cache rather than recomputed.
    reason:
        For ``"direct"`` plans, why MatchJoin was not applicable
        (``"not-contained"``, ``"isolated-nodes"`` or
        ``"unmaterialized"``); ``None`` for MatchJoin.
    """

    query: Pattern
    strategy: str
    selection: str
    containment: Containment
    views_used: Tuple[str, ...]
    bounded: bool
    cache_key: Tuple
    containment_cached: bool = False
    reason: Optional[str] = field(default=None)

    @property
    def uses_views(self) -> bool:
        """True when the plan reads view extensions (MatchJoin only)."""
        return self.strategy == MATCHJOIN

    def explain(self) -> str:
        """A human-readable rendition of the plan (CLI ``--explain``)."""
        lines = [
            f"strategy : {self.strategy}"
            + (f" ({self.reason})" if self.reason else ""),
            f"selection: {self.selection}"
            + (" [cached decision]" if self.containment_cached else ""),
            f"bounded  : {self.bounded}",
        ]
        if self.uses_views:
            lines.append(f"views    : {', '.join(self.views_used) or '(none)'}")
            lines.append(
                f"lambda   : {len(self.containment.mapping)} query edges covered"
            )
        else:
            uncovered = sorted(self.containment.uncovered, key=repr)
            if uncovered:
                rendered = ", ".join(f"{a}->{b}" for a, b in uncovered)
                lines.append(f"uncovered: {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        views = f", views={list(self.views_used)}" if self.uses_views else ""
        return f"QueryPlan({self.strategy!r}, selection={self.selection!r}{views})"


@lru_cache(maxsize=1024)
def fingerprint_digest(key: PatternKey) -> str:
    """A short stable digest of a pattern fingerprint.

    ``hash()`` is salted per process, so correlation across runs (and
    across the plan log, traces, and the serving protocol) uses a
    content digest instead.  Memoized: the digest is recomputed per
    answered query (the plan-choice record carries it), and a serving
    workload answers the same fingerprints over and over.
    """
    return hashlib.sha1(repr(key).encode()).hexdigest()[:12]


#: Version of the plan-choice record schema (breaking layout changes
#: bump this).  v3 dropped v2's priced-planner fields (``planner``,
#: ``cost_estimate_ms``, ``candidates``) and ``views_wanted``; v4 drops
#: ``executor`` (every answer is evaluated in process); every other
#: field is unchanged since v1.
PLAN_RECORD_VERSION = 4


@dataclass(frozen=True)
class PlanChoiceRecord:
    """One planner decision plus the measured inputs it was made with:
    what the planner chose (``strategy``/``selection``/``views_used``,
    the fallback ``reason``), what it read (``view_sizes`` -- the
    per-view extension sizes, ``snapshot_kind`` -- which backend
    evaluated), and what it cost (``elapsed``,
    ``cache_hit``/``containment_cached``).  Emitted once per delivered
    answer by :class:`~repro.engine.engine.QueryEngine` into its
    bounded plan log, mirrored as registry counters.

    The record agrees with :meth:`QueryPlan.explain` by construction:
    both read the same plan fields.
    """

    fingerprint: str
    strategy: str
    selection: str
    reason: Optional[str]
    views_used: Tuple[str, ...]
    view_sizes: Dict[str, int]
    bounded: bool
    containment_cached: bool
    cache_hit: bool
    snapshot_kind: str
    elapsed: float

    @classmethod
    def of(
        cls,
        plan: "QueryPlan",
        state,
        *,
        elapsed: float,
        cache_hit: bool,
    ) -> "PlanChoiceRecord":
        """The record of one answer delivered under ``plan`` on
        ``state`` (the planning state that answered: the live catalog
        or an epoch's checkpoint), which reports the sizes of the
        extensions read and the backend that evaluated."""
        view_sizes = {}
        for name in plan.views_used:
            size = state.extension_size(name)
            if size is not None:
                view_sizes[name] = size
        return cls(
            fingerprint=fingerprint_digest(plan.cache_key[0]),
            strategy=plan.strategy,
            selection=plan.selection,
            reason=plan.reason,
            views_used=plan.views_used,
            view_sizes=view_sizes,
            bounded=plan.bounded,
            containment_cached=plan.containment_cached,
            cache_hit=cache_hit,
            snapshot_kind=state.snapshot_kind,
            elapsed=elapsed,
        )

    def to_dict(self) -> Dict:
        """JSON-ready form (the plan log and protocol surface this)."""
        return {
            "version": PLAN_RECORD_VERSION,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "selection": self.selection,
            "reason": self.reason,
            "views_used": list(self.views_used),
            "view_sizes": dict(self.view_sizes),
            "bounded": self.bounded,
            "containment_cached": self.containment_cached,
            "cache_hit": self.cache_hit,
            "snapshot_kind": self.snapshot_kind,
            "elapsed_ms": self.elapsed * 1e3,
        }


#: Plan-choice records retained per engine (newest win; the serving
#: protocol exposes them).
PLAN_LOG_CAPACITY = 256


class PlanLog:
    """One engine's bounded plan-choice log, mirrored as registry
    counters.

    :meth:`append` takes no lock of its own -- the bounded deque's
    ``append`` is atomic and every instrument locks itself -- so it may
    run on an event loop while a maintenance batch holds the catalog.
    Instrument handles touched per delivered answer are bound once
    here: the registry lookup (label normalization + dict + lock) is
    what the per-query overhead budget cannot afford.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._records: Deque[PlanChoiceRecord] = deque(maxlen=PLAN_LOG_CAPACITY)
        self._queries = {
            strategy: registry.counter(
                "repro_engine_queries_total", strategy=strategy
            )
            for strategy in (MATCHJOIN, DIRECT)
        }
        self._fallbacks: Dict[str, object] = {}
        self._cache_hits = registry.counter(
            "repro_engine_answer_cache_hits_total"
        )
        self._cache_misses = registry.counter(
            "repro_engine_answer_cache_misses_total"
        )
        self._query_seconds = registry.histogram(
            "repro_engine_query_seconds", DURATION_BUCKETS
        )

    def recent(self, limit: Optional[int] = None) -> List[PlanChoiceRecord]:
        """The most recent records, newest first."""
        records = list(self._records)
        records.reverse()
        return records[:limit] if limit is not None else records

    def append(self, plan: QueryPlan, record: PlanChoiceRecord) -> None:
        """Log one finished ``record`` of ``plan`` and meter it."""
        self._records.append(record)
        self._queries[plan.strategy].inc()
        if plan.reason is not None:
            fallback = self._fallbacks.get(plan.reason)
            if fallback is None:
                fallback = self._fallbacks[plan.reason] = self._registry.counter(
                    "repro_engine_fallbacks_total", reason=plan.reason
                )
            fallback.inc()
        if record.cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
            self._query_seconds.observe(record.elapsed)
        current = trace.current_span()
        if current is not None:
            current.set(
                strategy=plan.strategy,
                cache_hit=record.cache_hit,
                snapshot_kind=record.snapshot_kind,
            )


@dataclass
class ExecutionStats:
    """Per-query execution telemetry, attached to ``MatchResult.stats``.

    ``elapsed`` is the evaluation wall time in seconds (zero for answer
    -cache hits).
    """

    strategy: str
    selection: str
    views_used: Tuple[str, ...]
    elapsed: float
    cache_hit: bool
    containment_cached: bool
