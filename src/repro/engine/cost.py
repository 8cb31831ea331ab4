"""The calibrated cost model behind the adaptive planner (ROADMAP item 3).

The paper's experiments (Fig. 8) show that no single evaluation
strategy dominates: MatchJoin from a small view subset beats direct
``Match`` by a wide margin when ``Q ⊑ V`` and the extensions are small
(Sections IV-V), the greedy-minimum subset beats minimal when views
overlap heavily (Theorem 6 / Fig. 8h), and partial/hybrid rewriting
wins when most -- but not all -- of the query is covered
(Section VIII).  Choosing *per query* needs cost estimates, and the
engine already measures everything an estimate needs: per-view
extension sizes ride on every :class:`~repro.engine.plan.PlanChoiceRecord`
and ``record.elapsed`` is the observed evaluation wall time.

:class:`CostModel` turns those observations into per-strategy
*seconds-per-unit* rates:

* ``units`` abstract the work a strategy touches -- the label-index
  bucket volume the query's seeding would read (selectivity-aware,
  degrading to ``|G|`` without a label index) for direct evaluation,
  the summed extension sizes of the chosen subset for MatchJoin, and
  ``covered extension units + uncovered-fraction x direct units`` for
  hybrid rewriting;
* rates are calibrated online with an EWMA per ``(strategy, bounded)``
  shape (bounded evaluation pays the Section VI distance machinery, so
  it calibrates separately), seeded with cold-start defaults whose
  *ordering* encodes the paper's qualitative result: per unit touched,
  MatchJoin < hybrid < direct;
* an unmaterialized view costs extra: the planner charges a one-shot
  materialization penalty (approximately one direct evaluation of the
  view over ``G``), which is exactly what makes the
  :class:`~repro.engine.advisor.WorkloadAdvisor`'s auto-materialization
  pay off -- once a hot view is materialized the penalty disappears
  and MatchJoin starts winning the cost race.

Thread safety: planning reads the rates from any thread (the serving
layer plans on pinned epochs in its reader pool) while delivered
answers calibrate them, so the model guards its table with a leaf lock
of its own -- held for a dict walk, never across a call out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Cold-start seconds-per-unit rates.  The absolute values are rough
#: (one fixpoint step over a pure-Python adjacency row); the *ordering*
#: is the load-bearing part: per unit, answering from extensions is
#: cheaper than hybrid rewriting is cheaper than direct evaluation.
COLD_RATES: Dict[str, float] = {
    "matchjoin": 2.0e-6,
    "hybrid": 3.5e-6,
    "direct": 8.0e-6,
}

#: Cold-start multiplier for bounded shapes (Section VI pays bounded
#: BFS / distance-cache work on top of the plain fixpoint).
BOUNDED_COLD_FACTOR = 3.0

#: EWMA smoothing for calibration samples (first sample replaces the
#: cold default outright; see :meth:`CostModel.observe`).
EWMA_ALPHA = 0.2

#: Estimated extension size of a not-yet-materialized view, as a
#: fraction of ``|G|`` units.  The paper caches views at 4-15% of
#: ``|G|`` (Section VII-B); planning before materialization only needs
#: the right order of magnitude.
EST_MISSING_FRACTION = 0.15

#: Fallback bytes-per-unit figure used when no flat-buffer byte
#: accounting is available (dict-backed graphs/extensions).  One unit
#: is one node or one match pair; 28 bytes approximates two pointers
#: plus object overhead amortized over CPython's small-object pools.
#: Using the *same* constant for graph and extension units keeps the
#: advisor's budget fraction equal to the paper's size fraction.
BYTES_PER_UNIT = 28


@dataclass(frozen=True)
class CandidateCost:
    """One strategy the planner priced for a query.

    ``estimate`` is the full predicted cost in seconds, including any
    one-shot materialization penalty for views the candidate would
    first have to materialize; ``warm_estimate`` strips that penalty
    (the steady-state cost once everything the candidate reads is
    materialized -- what the advisor treats as the view's benefit).
    ``units`` is the work volume the rate was applied to, ``rate`` the
    calibrated seconds-per-unit.  ``feasible`` is False when the
    candidate cannot run at all (e.g. MatchJoin with unmaterialized
    views and no graph to materialize from); infeasible candidates are
    kept in the plan for explainability but never win.
    """

    strategy: str
    label: str
    selection: str
    views: Tuple[str, ...]
    units: float
    rate: float
    estimate: float
    warm_estimate: float
    feasible: bool = True
    note: str = ""

    def to_dict(self) -> Dict:
        return {
            "strategy": self.strategy,
            "label": self.label,
            "selection": self.selection,
            "views": list(self.views),
            "units": self.units,
            "rate": self.rate,
            "estimate": self.estimate,
            "warm_estimate": self.warm_estimate,
            "feasible": self.feasible,
            "note": self.note,
        }

    def render(self, chosen: bool = False) -> str:
        """One ``explain()`` line: marker, label, estimate, inputs."""
        marker = "*" if chosen else " "
        extra = f"  views={','.join(self.views)}" if self.views else ""
        note = f"  [{self.note}]" if self.note else ""
        flag = "" if self.feasible else "  (infeasible)"
        return (
            f"{marker} {self.label:<22} est={self.estimate * 1e3:9.3f} ms"
            f"  units={self.units:.0f}{extra}{note}{flag}"
        )


@dataclass
class _Rate:
    value: float
    samples: int = 0


class CostModel:
    """Per-strategy seconds-per-unit rates, calibrated online.

    One instance per engine.  ``observe`` feeds measured evaluations in,
    ``estimate`` prices future ones; both key on ``(strategy,
    bounded)`` so bounded shapes calibrate independently.
    """

    def __init__(self, alpha: float = EWMA_ALPHA) -> None:
        self._alpha = alpha
        self._rates: Dict[Tuple[str, bool], _Rate] = {}
        self._lock = threading.Lock()

    def rate(self, strategy: str, bounded: bool) -> float:
        """The current seconds-per-unit rate for a shape.

        Calibrated shapes return their observed (EWMA) rate.  A cold
        shape returns its default, *anchored* to the machine: if other
        strategies at the same bounded tier have been observed, the
        cold default is scaled by their mean observed-to-default ratio.
        The cold constants encode the relative ordering (matchjoin <
        hybrid < direct per unit); the anchor transfers the absolute
        magnitude from whatever this host has actually measured, so a
        calibrated strategy is never compared against an uncalibrated
        one on a different scale.
        """
        with self._lock:
            entry = self._rates.get((strategy, bounded))
            if entry is not None:
                return entry.value
            observed = [
                (s, rate.value)
                for (s, b), rate in self._rates.items()
                if b == bounded
            ]
        cold = self._cold(strategy, bounded)
        ratios = [value / self._cold(s, bounded) for s, value in observed]
        if ratios:
            return cold * (sum(ratios) / len(ratios))
        return cold

    @staticmethod
    def _cold(strategy: str, bounded: bool) -> float:
        cold = COLD_RATES.get(strategy, COLD_RATES["direct"])
        return cold * (BOUNDED_COLD_FACTOR if bounded else 1.0)

    def samples(self, strategy: str, bounded: bool) -> int:
        """How many observations calibrated this shape (0 = cold)."""
        entry = self._rates.get((strategy, bounded))
        return entry.samples if entry is not None else 0

    def observe(
        self, strategy: str, bounded: bool, units: float, elapsed: float
    ) -> None:
        """Fold one measured evaluation into the shape's rate.

        The first sample replaces the cold default outright (defaults
        are order-of-magnitude guesses; one real measurement beats
        them), later samples EWMA in so a single outlier -- a GC pause,
        a cold branch predictor -- cannot wreck a calibrated rate.
        """
        if elapsed <= 0.0:
            return
        sample = elapsed / max(units, 1.0)
        with self._lock:
            entry = self._rates.get((strategy, bounded))
            if entry is None:
                self._rates[(strategy, bounded)] = _Rate(sample, samples=1)
                return
            entry.value += self._alpha * (sample - entry.value)
            entry.samples += 1

    def observe_answer(self, plan, state, record) -> None:
        """Calibrate with one evaluated answer: ``record`` of ``plan``,
        delivered on planning state ``state``.  Priced plans carry the
        units they were estimated from; for fixed-planner plans the
        same volumes are taken from what was read, so an advisor
        scoring their records prices them on this machine's rates."""
        units = plan.cost_units
        if units <= 0.0:
            if plan.strategy == "direct":
                units = state.direct_units(plan.query)
            else:
                units = float(sum(record.view_sizes.values()))
                total = len(plan.query.edge_set())
                if plan.strategy == "hybrid" and total:
                    uncovered = len(plan.containment.uncovered)
                    units += (uncovered / total) * state.direct_units(plan.query)
        self.observe(plan.strategy, plan.bounded, units, record.elapsed)

    def estimate(self, strategy: str, bounded: bool, units: float) -> float:
        """Predicted evaluation seconds for ``units`` of work."""
        return self.rate(strategy, bounded) * max(units, 1.0)

    def materialize_penalty(self, bounded: bool, graph_units: float) -> float:
        """One-shot cost of materializing one missing view: roughly one
        direct evaluation of the view pattern over ``G``."""
        return self.estimate("direct", bounded, graph_units)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready calibration state (``repro advise`` shows this)."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            rates = sorted(self._rates.items())
        for (strategy, bounded), entry in rates:
            key = f"{strategy}{'+bounded' if bounded else ''}"
            out[key] = {"rate": entry.value, "samples": entry.samples}
        return out
