"""Workload-driven auto-materialization under a byte budget.

The paper's deployment argument (Section VII-B) is an economics claim:
materialized views answering the hot workload cost only 4-15% of
``|G|``, so a deployment should spend *that* budget on the views the
workload actually reads.  "One issue is to decide what views to cache
such that a set of frequently used pattern queries can be answered by
using the views" (Section VIII) -- :class:`WorkloadAdvisor` closes the
loop at runtime instead of ahead of time:

* **signal** -- the engine's plan log.  Every delivered answer carries
  the views its plan read and (for adaptive plans) the priced
  candidate table, so the advisor knows both how *often* a view is
  wanted and how many estimated seconds it saves over direct
  evaluation each time.
* **score** -- ``(benefit x frequency) / (bytes + maintenance cost)``:
  benefit per answer from the cost model's candidate estimates,
  frequency from plan-log hits, size from real flat-buffer byte
  accounting when available (PR 7's ``repro stats`` memory machinery)
  and a uniform bytes-per-unit estimate otherwise, maintenance cost
  from the attached tracker's :class:`~repro.views.maintenance.ViewStats`
  via :func:`~repro.views.selection.maintenance_cost`.
* **act** -- :meth:`tick` materializes the best-scoring views that fit
  the budget and evicts the rest.  The budget is enforced against
  *measured* bytes after every materialization, so a tick never ends
  over budget even when the pre-materialization size estimate was low.
  Eviction is safe mid-workload: ``drop_extension`` bumps the view's
  version stamp (stranding cached answers keyed on it) and in-flight
  evaluations hold their own point-in-time extensions copy.

Wired in three places: ``QueryEngine(auto_materialize=...)`` ticks
every :data:`ADVISOR_INTERVAL` delivered answers, :class:`~repro.serve.server.QueryServer`
runs periodic epoch-safe ticks on its maintenance thread, and
``repro advise`` reports (and optionally applies) the scores offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.cost import BYTES_PER_UNIT, EST_MISSING_FRACTION
from repro.engine.plan import DIRECT, MATCHJOIN
from repro.views.selection import selection_stats

#: Default budget: the top of the paper's measured 4-15% |G| range.
DEFAULT_BUDGET_FRACTION = 0.15

#: Delivered answers between two :meth:`WorkloadAdvisor.maybe_tick`
#: ticks of an engine-owned advisor (``auto_materialize=``).
ADVISOR_INTERVAL = 32


@dataclass
class ViewScore:
    """One view's advisor-eye economics at scoring time."""

    name: str
    hits: int
    benefit: float
    bytes: int
    maintenance_cost: float
    materialized: bool
    score: float
    action: str = "keep"  # keep | materialize | evict | none

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "benefit_seconds": self.benefit,
            "bytes": self.bytes,
            "maintenance_cost": self.maintenance_cost,
            "materialized": self.materialized,
            "score": self.score,
            "action": self.action,
        }


@dataclass
class AdvisorReport:
    """What one :meth:`WorkloadAdvisor.advise` / :meth:`tick` decided.

    ``used_bytes`` is the measured post-action footprint of every
    materialized extension; ``tick() `` guarantees
    ``used_bytes <= budget_bytes`` on return.
    """

    budget_bytes: int
    graph_bytes: int
    used_bytes: int
    scores: List[ViewScore] = field(default_factory=list)
    materialized: List[str] = field(default_factory=list)
    evicted: List[str] = field(default_factory=list)
    applied: bool = False

    @property
    def budget_fraction_used(self) -> float:
        return self.used_bytes / self.budget_bytes if self.budget_bytes else 0.0

    def to_dict(self) -> Dict:
        return {
            "budget_bytes": self.budget_bytes,
            "graph_bytes": self.graph_bytes,
            "used_bytes": self.used_bytes,
            "budget_fraction_used": self.budget_fraction_used,
            "materialized": list(self.materialized),
            "evicted": list(self.evicted),
            "applied": self.applied,
            "scores": [score.to_dict() for score in self.scores],
        }


class WorkloadAdvisor:
    """Score, materialize and evict views from observed workload value.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.QueryEngine` whose plan log,
        view catalog and cost model drive the decisions.  Requires a
        data graph (there is nothing to materialize from otherwise).
    budget_fraction / budget_bytes:
        The extension-cache byte budget: a fraction of the graph
        segment's measured bytes (default 15%, the paper's upper
        bound), or an absolute byte count overriding the fraction.
    interval:
        :meth:`maybe_tick` (called by the engine once per delivered
        answer) runs a full :meth:`tick` every ``interval`` answers
        (default: :data:`ADVISOR_INTERVAL`, read at construction).
    min_hits:
        Views read by fewer than this many logged answers are never
        auto-materialized (1 = any observed use qualifies).
    """

    def __init__(
        self,
        engine,
        budget_fraction: float = DEFAULT_BUDGET_FRACTION,
        budget_bytes: Optional[int] = None,
        interval: Optional[int] = None,
        min_hits: int = 1,
    ) -> None:
        if interval is None:
            interval = ADVISOR_INTERVAL
        if engine.graph is None:
            raise ValueError("WorkloadAdvisor requires an engine with a graph")
        if budget_fraction < 0:
            raise ValueError(f"budget_fraction must be >= 0, got {budget_fraction}")
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self._engine = engine
        # Reading it creates it (a fixed-planner engine has none until
        # asked): answers calibrate it from the moment an advisor
        # attaches, so benefit is priced on this machine's rates.
        self._model = engine.cost_model
        self._budget_fraction = budget_fraction
        self._budget_bytes = budget_bytes
        self._interval = interval
        self._min_hits = min_hits
        self._deliveries = 0
        self._ticks = 0
        self._ticking = False
        self.last_report: Optional[AdvisorReport] = None

    @property
    def ticks(self) -> int:
        """How many times :meth:`tick` has run."""
        return self._ticks

    # ------------------------------------------------------------------
    # Byte accounting
    # ------------------------------------------------------------------
    def graph_bytes(self) -> int:
        """The graph segment's measured bytes (flat-buffer snapshots),
        or a uniform bytes-per-unit estimate for dict backends."""
        snapshot = self._engine.snapshot()
        store = getattr(snapshot, "flat_store", None)
        if store is not None:
            return int(store.total_bytes)
        return int(self._engine.graph_units() * BYTES_PER_UNIT)

    def view_bytes(self, name: str, graph_bytes: Optional[int] = None) -> int:
        """One view's extension footprint: measured flat-pack bytes
        when available, size-based estimate otherwise; for a view not
        yet materialized, the cost model's missing-size estimate."""
        views = self._engine.views
        if views.is_materialized(name):
            extension = views.extension(name)
            compact = getattr(extension, "compact", None)
            store = getattr(compact, "store", None)
            if store is not None:
                return int(store.total_bytes)
            return int(extension.size * BYTES_PER_UNIT)
        if graph_bytes is None:
            graph_bytes = self.graph_bytes()
        return int(EST_MISSING_FRACTION * graph_bytes)

    def used_bytes(self) -> int:
        """Measured bytes of every materialized extension right now."""
        views = self._engine.views
        return sum(
            self.view_bytes(name)
            for name in views.names()
            if views.is_materialized(name)
        )

    def budget_bytes(self) -> int:
        """The resolved byte budget (absolute override or fraction of
        the measured graph bytes)."""
        if self._budget_bytes is not None:
            return int(self._budget_bytes)
        return int(self._budget_fraction * self.graph_bytes())

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def scores(self) -> List[ViewScore]:
        """Every defined view scored by
        ``(benefit x frequency) / (bytes + maintenance cost)``,
        best first."""
        engine = self._engine
        records = engine.plan_log()
        stats = selection_stats(
            engine.views, maintenance=engine.maintenance, plan_log=records
        )
        graph_bytes = self.graph_bytes()
        graph_units = engine.graph_units()
        model = self._model
        benefit: Dict[str, float] = {}
        # Demand is *priced* demand, not reads: a plan that went direct
        # because the view was unmaterialized (an adaptive plan's priced
        # candidate, a plan on an epoch the view was evicted from: its
        # record's ``views_wanted``) still counts as a hit for that
        # view -- otherwise nothing would ever get (re)materialized
        # (direct plans read no views).
        demand: Dict[str, int] = {}
        for record in records:
            per_view = self._record_benefit(record, model, graph_units)
            for name, gain in per_view.items():
                benefit[name] = benefit.get(name, 0.0) + gain
                demand[name] = demand.get(name, 0) + 1
            for name in record.views_used:
                if name not in per_view:
                    demand[name] = demand.get(name, 0) + 1
        out: List[ViewScore] = []
        for name, row in stats.items():
            size_bytes = self.view_bytes(name, graph_bytes)
            gain = benefit.get(name, 0.0)
            maintenance = float(row["maintenance_cost"])
            # Maintenance cost is a unitless work proxy; scale it to
            # bytes-of-burden so the denominator has one unit.
            denominator = size_bytes + maintenance * BYTES_PER_UNIT + 1.0
            out.append(
                ViewScore(
                    name=name,
                    hits=max(int(row["hits"]), demand.get(name, 0)),
                    benefit=gain,
                    bytes=size_bytes,
                    maintenance_cost=maintenance,
                    materialized=bool(row["materialized"]),
                    score=gain / denominator,
                )
            )
        out.sort(key=lambda s: (-s.score, s.name))
        return out

    @staticmethod
    def _record_benefit(record, model, graph_units) -> Dict[str, float]:
        """Estimated seconds one answer saved (or would save) thanks to
        each view, from the record's priced candidates -- falling back
        to cost-model estimates for fixed-planner records."""
        direct_estimate = None
        best = None
        for candidate in getattr(record, "candidates", ()):
            if candidate.strategy == DIRECT:
                direct_estimate = candidate.estimate
            elif candidate.views and (
                best is None or candidate.warm_estimate < best.warm_estimate
            ):
                best = candidate
        if direct_estimate is None:
            direct_estimate = model.estimate(DIRECT, record.bounded, graph_units)
        if best is not None:
            gain = max(direct_estimate - best.warm_estimate, 0.0)
            share = gain / len(best.views)
            return {name: share for name in best.views}
        # Fixed-planner record: estimate the warm cost from the measured
        # sizes of the extensions it read -- or, answered directly for
        # want of them, would have read (at their estimated size).
        names = record.views_used or record.views_wanted
        if not names:
            return {}
        strategy = record.strategy if record.views_used else MATCHJOIN
        missing = EST_MISSING_FRACTION * graph_units
        units = float(sum(record.view_sizes.get(n, missing) for n in names))
        warm = model.estimate(strategy, record.bounded, units)
        gain = max(direct_estimate - warm, 0.0)
        return {name: gain / len(names) for name in names}

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def advise(self) -> AdvisorReport:
        """Score every view and plan actions -- without applying them."""
        return self._plan(apply=False)

    def tick(self) -> AdvisorReport:
        """Score, then materialize the winners and evict the losers,
        never ending over budget (measured bytes)."""
        return self._plan(apply=True)

    def maybe_tick(self) -> Optional[AdvisorReport]:
        """Engine hook: run a tick every ``interval`` delivered
        answers.  Re-entrancy safe (a tick in progress suppresses
        nested ticks)."""
        if self._ticking:
            return None
        self._deliveries += 1
        if self._deliveries < self._interval:
            return None
        self._deliveries = 0
        return self.tick()

    def _plan(self, apply: bool) -> AdvisorReport:
        engine = self._engine
        graph_bytes = self.graph_bytes()
        budget = self.budget_bytes()
        scores = self.scores()
        # Greedy knapsack by score: the best-scoring hot views that fit.
        wanted: List[str] = []
        planned_bytes = 0
        for entry in scores:
            if entry.score <= 0.0 or entry.hits < self._min_hits:
                continue
            if planned_bytes + entry.bytes > budget:
                continue
            wanted.append(entry.name)
            planned_bytes += entry.bytes
        by_name = {entry.name: entry for entry in scores}
        to_evict = [
            entry.name
            for entry in scores
            if entry.materialized and entry.name not in wanted
        ]
        to_materialize = [
            name for name in wanted if not by_name[name].materialized
        ]
        for entry in scores:
            if entry.name in to_evict:
                entry.action = "evict"
            elif entry.name in to_materialize:
                entry.action = "materialize"
            elif entry.materialized:
                entry.action = "keep"
            else:
                entry.action = "none"
        report = AdvisorReport(
            budget_bytes=budget,
            graph_bytes=graph_bytes,
            used_bytes=self.used_bytes(),
            scores=scores,
            materialized=list(to_materialize),
            evicted=list(to_evict),
            applied=apply,
        )
        if not apply:
            self.last_report = report
            return report
        self._ticking = True
        try:
            evicted = engine.evict_extensions(to_evict)
            materialized: List[str] = []
            for name in to_materialize:
                engine.materialize_views([name])
                materialized.append(name)
                # Enforce the budget against *measured* bytes: the
                # pre-materialization estimate may have been low.
                over = self.used_bytes() - budget
                if over > 0:
                    victims = sorted(
                        (
                            entry
                            for entry in scores
                            if engine.views.is_materialized(entry.name)
                        ),
                        key=lambda entry: entry.score,
                    )
                    for victim in victims:
                        if self.used_bytes() <= budget:
                            break
                        engine.evict_extensions([victim.name])
                        if victim.name in materialized:
                            # Materialized-then-evicted within this
                            # tick: a net no-op (the estimate was low
                            # and the real extension does not fit), not
                            # an eviction to report.
                            materialized.remove(victim.name)
                            victim.action = "none"
                        else:
                            evicted.append(victim.name)
                            victim.action = "evict"
            self._ticks += 1
        finally:
            self._ticking = False
        report.materialized = materialized
        report.evicted = evicted
        report.used_bytes = self.used_bytes()
        self.last_report = report
        return report

    def __repr__(self) -> str:
        return (
            f"WorkloadAdvisor(budget={self.budget_bytes()}B, "
            f"ticks={self._ticks}, interval={self._interval})"
        )
