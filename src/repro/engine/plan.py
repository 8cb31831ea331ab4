"""Query plans: the inspectable outcome of the engine's planner.

The paper's pipeline (Section II-B) has three stages -- decide
``Q ⊑ V`` (Theorem 3), select views (Theorems 5/6), evaluate MatchJoin
(Fig. 2) -- and a deployment runs them for every incoming query.  The
planner factors the first two stages out into a :class:`QueryPlan` that
is computed once per (query shape, selection, view-cache version) and
can be inspected, cached, and shipped to worker processes.

A plan chooses among three strategies:

* ``"matchjoin"`` -- ``Q ⊑ V`` holds: evaluate from the materialized
  extensions only, never touching ``G`` (Theorem 1).
* ``"hybrid"`` -- partial rewriting (Section VIII): answer the covered
  pattern fragment from the views and touch ``G`` only for the
  uncovered edges; exact, and cheap when coverage is high.
* ``"direct"`` -- fall back to the simulation baseline ``Match`` on
  the data graph (always chosen for isolated-node patterns, which view
  extensions cannot cover).

Which one is the planner mode's decision (:data:`PLANNERS`); a priced
plan records its full candidate table (``explain()``, and the answer's
:class:`PlanChoiceRecord`).

:func:`pattern_key` provides the structural fingerprint used as the
cache key; two queries with equal fingerprints have identical results
on every graph and view cache.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Deque, Dict, Hashable, List, Optional, Tuple

from repro.core.containment import Containment
from repro.graph.pattern import BoundedPattern, Pattern
from repro.obs import trace
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # priced plans carry these; a fixed plan never loads them
    from repro.engine.cost import CandidateCost

PatternKey = Tuple[Hashable, ...]

#: Plan strategies.
MATCHJOIN = "matchjoin"
DIRECT = "direct"
HYBRID = "hybrid"

#: Planner modes.  ``"fixed"`` is the legacy binary decision (MatchJoin
#: iff ``Q ⊑ V``, else direct); ``"adaptive"`` prices every applicable
#: strategy with the engine's :class:`~repro.engine.cost.CostModel` and
#: picks the cheapest; ``"direct"`` / ``"hybrid"`` force one strategy.
PLANNER_FIXED = "fixed"
PLANNER_ADAPTIVE = "adaptive"
PLANNER_DIRECT = "direct"
PLANNER_HYBRID = "hybrid"
PLANNERS = (PLANNER_FIXED, PLANNER_ADAPTIVE, PLANNER_DIRECT, PLANNER_HYBRID)

#: Reasons the planner may fall back to the direct strategy.  The last
#: one is for a state that cannot materialize (an epoch's checkpoint, a
#: views-only engine): ``Q ⊑ V`` holds but a needed extension is
#: absent (evicted, never built) or stale.
REASON_NOT_CONTAINED = "not-contained"
REASON_ISOLATED_NODES = "isolated-nodes"
REASON_UNMATERIALIZED = "unmaterialized"

#: Cost-model reasons: the adaptive planner chose the strategy because
#: it priced cheapest among the feasible candidates.
REASON_COST_DIRECT = "cost-direct"
REASON_COST_MATCHJOIN = "cost-matchjoin"
REASON_COST_HYBRID = "cost-hybrid"

#: A forced planner mode (``planner="direct"`` / ``"hybrid"``) chose
#: the strategy; no cost comparison happened.
REASON_FORCED = "forced"

#: Reasons that count as *fallbacks* (views could not answer the
#: query) in ``repro_engine_fallbacks_total`` -- cost-model reasons are
#: choices, not fallbacks, and stay out of that counter.
FALLBACK_REASONS = (
    REASON_NOT_CONTAINED,
    REASON_ISOLATED_NODES,
    REASON_UNMATERIALIZED,
)

#: Tie-break preference when candidate estimates are equal: prefer the
#: strategy that touches less of ``G``.
STRATEGY_PREFERENCE = (MATCHJOIN, HYBRID, DIRECT)


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
        ``"unmaterialized"``); for plans the
        adaptive planner chose on price, the cost reason
        (``"cost-matchjoin"`` / ``"cost-hybrid"`` / ``"cost-direct"``);
        ``None`` for fixed-planner MatchJoin plans.
    planner:
        Which planner mode produced the plan (see :data:`PLANNERS`).
    candidates:
        The priced :class:`~repro.engine.cost.CandidateCost` entries
        the adaptive planner compared (empty for the fixed planner).
    cost_estimate / cost_units:
        The winner's predicted evaluation seconds and the work-unit
        volume the estimate was computed from (``None`` / ``0`` when
        the planner did not price the plan).  ``cost_units`` is also
        what the engine calibrates the cost model with once the real
        elapsed time is known.
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
    planner: str = PLANNER_FIXED
    candidates: Tuple[CandidateCost, ...] = ()
    cost_estimate: Optional[float] = None
    cost_units: float = 0.0

    @property
    def uses_views(self) -> bool:
        """True when the plan reads view extensions (exclusively for
        MatchJoin; alongside ``G`` for hybrid rewriting)."""
        return self.strategy in (MATCHJOIN, HYBRID)

    def explain(self) -> str:
        """A human-readable rendition of the plan (CLI ``--explain``)."""
        cost = (
            f" est={self.cost_estimate * 1e3:.3f} ms"
            if self.cost_estimate is not None
            else ""
        )
        lines = [
            f"strategy : {self.strategy}"
            + (f" ({self.reason})" if self.reason else "")
            + cost,
            f"planner  : {self.planner}",
            f"selection: {self.selection}"
            + (" [cached decision]" if self.containment_cached else ""),
            f"bounded  : {self.bounded}",
        ]
        if self.uses_views:
            lines.append(f"views    : {', '.join(self.views_used) or '(none)'}")
            lines.append(
                f"lambda   : {len(self.containment.mapping)} query edges covered"
            )
        if self.strategy in (DIRECT, HYBRID):
            uncovered = sorted(self.containment.uncovered, key=repr)
            if uncovered:
                rendered = ", ".join(f"{a}->{b}" for a, b in uncovered)
                lines.append(f"uncovered: {rendered}")
        if self.candidates:
            lines.append("candidates:")
            winner = self.winning_candidate()
            for candidate in self.candidates:
                lines.append("  " + candidate.render(chosen=candidate is winner))
        return "\n".join(lines)

    def winning_candidate(self) -> Optional[CandidateCost]:
        """The candidate the plan executes (``None`` for fixed plans).

        Matched on strategy *and* selection so ``explain()`` and the
        :class:`PlanChoiceRecord` agree with the chosen plan by
        construction.
        """
        for candidate in self.candidates:
            if (
                candidate.strategy == self.strategy
                and (candidate.strategy != MATCHJOIN
                     or candidate.selection == self.selection)
            ):
                return candidate
        return None

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


#: Version of the plan-choice record schema (ROADMAP item 3 trains on
#: these records; breaking layout changes bump this).  v2 adds the
#: planner mode, the per-candidate cost table and the winner's
#: estimate; every v1 field is unchanged.
PLAN_RECORD_VERSION = 2


@dataclass(frozen=True)
class PlanChoiceRecord:
    """One planner decision plus the measured inputs it was made with.

    This is the structured telemetry ROADMAP item 3 ("cost-based
    adaptive planner ... recording plan-choice telemetry") consumes:
    what the planner chose (``strategy``/``selection``/``views_used``,
    the fallback ``reason``; ``views_wanted`` -- the views a contained
    query was *not* answered from because the state lacked their
    extensions, the advisor's demand signal), what it could observe
    (``view_sizes`` -- the per-view extension sizes a cost model weighs,
    ``snapshot_kind`` -- which backend evaluated), and what it cost (``elapsed``,
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
    executor: str
    elapsed: float
    planner: str = PLANNER_FIXED
    cost_estimate: Optional[float] = None
    candidates: Tuple[CandidateCost, ...] = ()
    views_wanted: Tuple[str, ...] = ()

    @classmethod
    def of(
        cls,
        plan: "QueryPlan",
        state,
        *,
        elapsed: float,
        cache_hit: bool,
        executor: str = "serial",
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
            executor=executor,
            elapsed=elapsed,
            planner=plan.planner,
            cost_estimate=plan.cost_estimate,
            candidates=plan.candidates,
            views_wanted=(
                plan.containment.views_used()
                if plan.reason == REASON_UNMATERIALIZED
                else ()
            ),
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
            "views_wanted": list(self.views_wanted),
            "view_sizes": dict(self.view_sizes),
            "bounded": self.bounded,
            "containment_cached": self.containment_cached,
            "cache_hit": self.cache_hit,
            "snapshot_kind": self.snapshot_kind,
            "executor": self.executor,
            "elapsed_ms": self.elapsed * 1e3,
            "planner": self.planner,
            "cost_estimate_ms": (
                self.cost_estimate * 1e3
                if self.cost_estimate is not None
                else None
            ),
            "candidates": [c.to_dict() for c in self.candidates],
        }


#: Plan-choice records retained per engine (newest win; the advisor
#: consumes these, and the serving protocol exposes them).
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
        counter = self._queries.get(plan.strategy)
        if counter is None:
            counter = self._queries[plan.strategy] = self._registry.counter(
                "repro_engine_queries_total", strategy=plan.strategy
            )
        counter.inc()
        # Only genuine view-insufficiency reasons count as fallbacks;
        # cost-model reasons are choices, not failures to use views.
        if plan.reason in FALLBACK_REASONS:
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
    -cache hits); ``executor`` names how the query ran (``"serial"``
    or ``"process"``); ``pid`` is the worker process id.
    ``ship_bytes`` / ``ship_seconds`` are the serialized size of the
    shared payload and the wall time spent serializing it when this
    query's batch went to a process pool (zero in-process: nothing
    ships).  Shipping happens once per batch, so every evaluated result
    of one batch reports the same figures.
    """

    strategy: str
    selection: str
    views_used: Tuple[str, ...]
    elapsed: float
    cache_hit: bool
    containment_cached: bool
    executor: str
    pid: Optional[int] = None
    ship_bytes: int = 0
    ship_seconds: float = 0.0
