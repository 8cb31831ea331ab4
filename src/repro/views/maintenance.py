"""Incremental maintenance of materialized simulation views.

The paper's practicality argument leans on cached views staying fresh:
"incremental methods are already in place to efficiently maintain
cached pattern views (e.g., [15])".  This module is the view layer of
the delta-driven maintenance pipeline:

* **deletions are incremental**: the maximum simulation after an edge
  deletion is contained in the one before, so a witness-counter cascade
  (the same machinery as the matching engines) prunes exactly the
  invalidated matches -- cost proportional to the affected area, not to
  ``|G|``.
* **insertions are incremental too**, in the spirit of the paper's
  [15]: simulation grows monotonically under insertions, so the only
  pairs that can *join* the match are label-compatible ancestors of the
  inserted edge's source.  :meth:`IncrementalView._insert_incremental`
  seeds revival candidates from exactly those pairs (a backward closure
  over the pattern x graph product), revives them through the existing
  witness-counter machinery, and falls back to a recomputation only
  when the affected area exceeds a configurable ``budget``.
* **batches** arrive as a :class:`Delta` -- an ordered sequence of edge
  insertions/deletions applied as one maintenance round via
  :meth:`IncrementalViewSet.apply_delta`, with per-view change
  accounting (:meth:`IncrementalViewSet.changed_since`) so downstream
  caches evict only what an update actually touched.

A standalone :class:`IncrementalView` owns its own copy of the graph so
that callers cannot desynchronize it; inside an
:class:`IncrementalViewSet` the trackers share the set's single copy
(``shared=True``) and all updates flow through the set.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.graph.digraph import DataGraph
from repro.graph.pattern import BoundedPattern
from repro.obs import trace
from repro.obs.metrics import SIZE_BUCKETS, get_registry
from repro.simulation.simulation import maximum_simulation
from repro.views.view import MaterializedView, ViewDefinition

log = logging.getLogger(__name__)

PNode = Hashable
Node = Hashable

#: Delta op kinds.
INSERT = "insert"
DELETE = "delete"


class Delta:
    """An ordered batch of edge insertions and deletions.

    The unit of work of the maintenance pipeline: one delta flows
    through the view trackers (:meth:`IncrementalViewSet.apply_delta`),
    the graph snapshot (:meth:`~repro.graph.digraph.DataGraph.apply_delta`
    plus journal-driven snapshot refresh) and the engine caches as a
    single maintenance round.  Build one with the fluent helpers::

        delta = Delta().insert("a", "b").delete("c", "d")

    or from an iterable of ``(op, source, target)`` triples, or from a
    text update stream via :meth:`parse`.
    """

    __slots__ = ("_ops",)

    def __init__(self, ops: Iterable[Tuple[str, Node, Node]] = ()) -> None:
        self._ops: List[Tuple[str, Node, Node]] = []
        for op, source, target in ops:
            self._add(op, source, target)

    def _add(self, op: str, source: Node, target: Node) -> None:
        if op not in (INSERT, DELETE):
            raise ValueError(
                f"unknown delta op {op!r}; expected {INSERT!r} or {DELETE!r}"
            )
        self._ops.append((op, source, target))

    def insert(self, source: Node, target: Node) -> "Delta":
        """Append an edge insertion; returns ``self`` for chaining."""
        self._ops.append((INSERT, source, target))
        return self

    def delete(self, source: Node, target: Node) -> "Delta":
        """Append an edge deletion; returns ``self`` for chaining."""
        self._ops.append((DELETE, source, target))
        return self

    @property
    def ops(self) -> Tuple[Tuple[str, Node, Node], ...]:
        """The batch as an immutable tuple of ``(op, source, target)``."""
        return tuple(self._ops)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "Delta":
        """Parse a text update stream (the ``repro maintain`` format).

        One op per line: ``+ <source> <target>`` or ``insert <source>
        <target>`` for insertions, ``- ...`` / ``delete ...`` for
        deletions.  Node keys are decoded as JSON scalars when they
        parse (so ``3`` is the integer node 3) and kept as raw strings
        otherwise.  Blank lines and ``#`` comments (full-line only) are
        skipped.

        Malformed input raises :class:`ValueError` naming the offending
        1-based line number: a line with anything other than exactly
        three whitespace-separated tokens (missing operands *and*
        trailing junk alike), or an unrecognized op token.
        """
        ops: List[Tuple[str, Node, Node]] = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ValueError(
                    f"malformed delta line {lineno}: {raw.rstrip()!r} "
                    f"(expected 3 tokens '<op> <source> <target>', "
                    f"got {len(tokens)})"
                )
            op = {"+": INSERT, "-": DELETE, INSERT: INSERT, DELETE: DELETE}.get(
                tokens[0]
            )
            if op is None:
                raise ValueError(
                    f"unknown delta op {tokens[0]!r} on line {lineno}: "
                    f"{raw.rstrip()!r} (expected '+', '-', "
                    f"{INSERT!r} or {DELETE!r})"
                )
            ops.append((op, _parse_key(tokens[1]), _parse_key(tokens[2])))
        return cls(ops)

    def __iter__(self) -> Iterator[Tuple[str, Node, Node]]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __repr__(self) -> str:
        inserts = sum(1 for op, _, _ in self._ops if op == INSERT)
        return (
            f"Delta(ops={len(self._ops)}, inserts={inserts}, "
            f"deletes={len(self._ops) - inserts})"
        )


def _parse_key(token: str) -> Node:
    try:
        return json.loads(token)
    except (ValueError, json.JSONDecodeError):
        return token


@dataclass
class ViewStats:
    """Per-view maintenance counters (cumulative since construction).

    ``incremental_inserts`` counts relevant insertions absorbed by the
    affected-area revival path; ``recomputes`` counts fallbacks (empty
    view revived, or the revival area exceeded the budget).
    ``affected_area`` totals the revival-candidate pairs examined --
    the cost measure of the paper's [15]-style insertion handling.
    """

    insertions: int = 0
    deletions: int = 0
    irrelevant_inserts: int = 0
    incremental_inserts: int = 0
    recomputes: int = 0
    revived_pairs: int = 0
    removed_pairs: int = 0
    affected_area: int = 0
    extension_builds: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (JSON-ready, used by reports and the CLI)."""
        return {
            "insertions": self.insertions,
            "deletions": self.deletions,
            "irrelevant_inserts": self.irrelevant_inserts,
            "incremental_inserts": self.incremental_inserts,
            "recomputes": self.recomputes,
            "revived_pairs": self.revived_pairs,
            "removed_pairs": self.removed_pairs,
            "affected_area": self.affected_area,
            "extension_builds": self.extension_builds,
        }


class DeltaReport(NamedTuple):
    """Outcome of one :meth:`IncrementalViewSet.apply_delta` round.

    ``applied``/``skipped`` count ops (already-present insertions and
    missing-edge deletions are skipped); ``changed_views`` names the
    views whose extensions actually changed -- the eviction set for
    downstream caches; ``per_view`` maps every maintained view to the
    stat deltas this round produced (same keys as
    :meth:`ViewStats.snapshot`).  ``stale_bounded`` names the bounded
    views the round left stale (filled by
    :meth:`~repro.views.storage.ViewSet.apply_delta`: bounded views are
    not maintained incrementally, so any graph-changing round strands
    their cached extensions until rematerialization).
    """

    applied: int
    skipped: int
    changed_views: Tuple[str, ...]
    per_view: Dict[str, Dict[str, int]]
    stale_bounded: Tuple[str, ...] = ()


def _meter_delta(report: "DeltaReport") -> None:
    """Record one maintenance round into the process-global registry:
    batch size, revival-vs-recompute outcomes, pair churn."""
    reg = get_registry()
    reg.counter("repro_maintenance_ops_applied_total").inc(report.applied)
    reg.counter("repro_maintenance_ops_skipped_total").inc(report.skipped)
    reg.histogram("repro_maintenance_delta_ops", SIZE_BUCKETS).observe(
        report.applied + report.skipped
    )
    revivals = recomputes = revived = removed = 0
    for stats in report.per_view.values():
        revivals += stats.get("incremental_inserts", 0)
        recomputes += stats.get("recomputes", 0)
        revived += stats.get("revived_pairs", 0)
        removed += stats.get("removed_pairs", 0)
    reg.counter("repro_maintenance_revivals_total").inc(revivals)
    reg.counter("repro_maintenance_recomputes_total").inc(recomputes)
    reg.counter("repro_maintenance_revived_pairs_total").inc(revived)
    reg.counter("repro_maintenance_removed_pairs_total").inc(removed)


class IncrementalView:
    """A simulation view kept consistent under edge updates.

    Parameters
    ----------
    definition:
        The simulation view to maintain (bounded views change
        non-locally under updates and are rejected).
    graph:
        The data graph.  Copied by default so external mutations cannot
        desynchronize the tracker; with ``shared=True`` the tracker
        adopts ``graph`` as-is and expects its owner (an
        :class:`IncrementalViewSet`) to route every update.
    budget:
        Affected-area budget for incremental insertions: when the
        revival-candidate closure exceeds this many pairs the tracker
        falls back to recomputing the view.  ``None`` (default) never
        falls back.
    """

    def __init__(
        self,
        definition: ViewDefinition,
        graph: DataGraph,
        *,
        shared: bool = False,
        budget: Optional[int] = None,
    ) -> None:
        if isinstance(definition.pattern, BoundedPattern):
            raise TypeError(
                "IncrementalView maintains simulation views; bounded views "
                "change non-locally under updates (distances), rematerialize "
                "them instead"
            )
        self.definition = definition
        self.budget = budget
        self.stats = ViewStats()
        self._shared = shared
        self._graph = graph if shared else graph.copy()
        self._sim: Optional[Dict[PNode, Set[Node]]] = None
        self._counters: Dict[Tuple[PNode, PNode], Dict[Node, int]] = {}
        self._extension_cache: Optional[MaterializedView] = None
        self._recompute()

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _compatible(self, x: PNode, v: Node) -> bool:
        # An endpoint not yet in the graph (add_edge auto-creates nodes)
        # will exist with no labels/attributes once the edge is applied.
        if v not in self._graph:
            return self.definition.pattern.condition(x).matches(frozenset(), {})
        return self.definition.pattern.condition(x).matches(
            self._graph.labels(v), self._graph.attrs(v)
        )

    def _recompute(self) -> None:
        pattern = self.definition.pattern
        self._sim = maximum_simulation(pattern, self._graph, self._compatible)
        self._counters = {}
        self._extension_cache = None
        if self._sim is None:
            return
        for x in pattern.nodes():
            for y in pattern.successors(x):
                targets = self._sim[y]
                self._counters[(x, y)] = {
                    v: sum(1 for w in self._graph.successors(v) if w in targets)
                    for v in self._sim[x]
                }

    # ------------------------------------------------------------------
    # Updates (standalone mode)
    # ------------------------------------------------------------------
    def insert_edge(self, source: Node, target: Node) -> bool:
        """Apply an edge insertion; returns whether the extension changed."""
        self._require_owned()
        if self._graph.has_edge(source, target):
            return False
        self._graph.add_edge(source, target)
        return self._after_insert(source, target)

    def delete_edge(self, source: Node, target: Node) -> bool:
        """Apply an edge deletion (no-op when the edge is absent);
        returns whether the extension changed."""
        self._require_owned()
        if not self._graph.has_edge(source, target):
            return False
        self._graph.remove_edge(source, target)
        return self._after_delete(source, target)

    def _require_owned(self) -> None:
        if self._shared:
            raise RuntimeError(
                f"view {self.definition.name!r} is maintained by an "
                "IncrementalViewSet; apply updates through the set"
            )

    # ------------------------------------------------------------------
    # Update internals (graph already mutated by the caller)
    # ------------------------------------------------------------------
    def _after_insert(self, source: Node, target: Node) -> bool:
        """Refresh state after ``source -> target`` joined the graph."""
        self.stats.insertions += 1
        if self._sim is None:
            # No counter state to revive from; recompute when the edge
            # could matter at all (rare: the view was entirely empty).
            if not self._relevant(source, target):
                self.stats.irrelevant_inserts += 1
                return False
            self.stats.recomputes += 1
            self._recompute()
            changed = self._sim is not None
            if changed:
                self._extension_cache = None
            return changed
        if not self._relevant(source, target):
            # No label-compatible view edge: provably no effect, O(1)
            # per pattern edge.
            self.stats.irrelevant_inserts += 1
            return False
        outcome = self._insert_incremental(source, target)
        if outcome is None:
            # Affected area exceeded the budget: recompute (the paper's
            # [15] bounds insertion cost by the affected area; past the
            # budget a recomputation is the cheaper correct choice).
            self.stats.recomputes += 1
            self._recompute()
            return True
        changed, revived, area = outcome
        self.stats.incremental_inserts += 1
        self.stats.revived_pairs += revived
        self.stats.affected_area += area
        if changed:
            self._extension_cache = None
        return changed

    def _insert_incremental(
        self, source: Node, target: Node
    ) -> Optional[Tuple[bool, int, int]]:
        """Affected-area revival after ``source -> target`` was added.

        Simulation is monotone under insertions, so the new maximum
        simulation extends the tracked one; the only candidates that
        can join are label-compatible pairs whose data node reaches
        ``source`` backwards along a compatible pattern path.  The
        method (1) collects that candidate closure (bounded by
        :attr:`budget`; returns ``None`` on overflow), (2) tentatively
        admits all candidates and rebuilds exactly the witness counters
        the admission could have changed, then (3) runs the standard
        counter-cascade refinement, which can only evict tentative
        candidates.  Returns ``(extension changed, pairs revived,
        affected-area size)``.
        """
        pattern = self.definition.pattern
        graph = self._graph
        sim = self._sim
        assert sim is not None
        budget = self.budget

        # --- (1) revival candidates: backward product closure --------
        in_r: Set[Tuple[PNode, Node]] = set()
        queue: deque = deque()
        for x in pattern.nodes():
            if source in sim[x] or not self._compatible(x, source):
                continue
            if any(
                self._compatible(y, target) for y in pattern.successors(x)
            ):
                in_r.add((x, source))
                queue.append((x, source))
        if budget is not None and len(in_r) > budget:
            return None
        while queue:
            x, v = queue.popleft()
            for x1 in pattern.predecessors(x):
                present = sim[x1]
                for v1 in graph.predecessors(v):
                    pair = (x1, v1)
                    if v1 in present or pair in in_r:
                        continue
                    if not self._compatible(x1, v1):
                        continue
                    in_r.add(pair)
                    if budget is not None and len(in_r) > budget:
                        return None
                    queue.append(pair)

        # --- (2) tentative admission + affected counters --------------
        # Old pairs whose witness sets may have grown: predecessors of
        # revived pairs, plus the inserted edge's own source.  Their
        # counters are rebuilt from scratch against the admitted state,
        # which keeps them exact for the cascade below (and for every
        # later deletion).
        affected_old: Set[Tuple[PNode, PNode, Node]] = set()
        for y, w in in_r:
            for x in pattern.predecessors(y):
                present = sim[x]
                for v in graph.predecessors(w):
                    if v in present:
                        affected_old.add((x, y, v))
        for x in pattern.nodes():
            if source in sim[x]:
                for y in pattern.successors(x):
                    affected_old.add((x, y, source))
        revived_by_node: Dict[PNode, List[Node]] = {}
        for x, v in in_r:
            revived_by_node.setdefault(x, []).append(v)
        for x, values in revived_by_node.items():
            sim[x].update(values)
        counters = self._counters
        for x, y, v in affected_old:
            counters[(x, y)][v] = len(sim[y].intersection(graph.successors(v)))
        for x, v in in_r:
            for y in pattern.successors(x):
                counters[(x, y)][v] = len(
                    sim[y].intersection(graph.successors(v))
                )

        # --- (3) cascade: only tentative candidates can fall ----------
        removals: deque = deque()
        removed: Set[Tuple[PNode, Node]] = set()
        for pair in in_r:
            x, v = pair
            for y in pattern.successors(x):
                if counters[(x, y)][v] == 0:
                    removed.add(pair)
                    sim[x].discard(v)
                    removals.append(pair)
                    break
        while removals:
            y, w = removals.popleft()
            for y1 in pattern.successors(y):
                counters[(y, y1)].pop(w, None)
            for x in pattern.predecessors(y):
                counter = counters[(x, y)]
                candidates = sim[x]
                for v in graph.predecessors(w):
                    if v in candidates:
                        counter[v] -= 1
                        if counter[v] == 0:
                            # Only revived pairs can hit zero: the old
                            # simulation is still a valid simulation of
                            # the grown graph.
                            candidates.discard(v)
                            removed.add((x, v))
                            removals.append((x, v))
        survived = len(in_r) - len(removed)
        if survived:
            changed = True
        else:
            # No pair revived, but the inserted edge itself may be a
            # fresh match of some view edge.
            changed = any(
                source in sim[x] and target in sim[y]
                for x, y in pattern.edges()
            )
        if changed:
            self._extension_cache = None
        return changed, survived, len(in_r)

    def _after_delete(self, source: Node, target: Node) -> bool:
        """Refresh state after ``source -> target`` left the graph."""
        self.stats.deletions += 1
        changed = self._prune_after_deletion(source, target)
        if changed:
            self._extension_cache = None
        return changed

    def _prune_after_deletion(self, source: Node, target: Node) -> bool:
        """Counter cascade after ``source -> target`` left the graph;
        returns whether any match pair was lost."""
        if self._sim is None:
            # The view was empty; deletions cannot revive it.
            return False
        pattern = self.definition.pattern
        changed = False
        removals: deque = deque()
        for x in pattern.nodes():
            if source not in self._sim[x]:
                continue
            for y in pattern.successors(x):
                if target not in self._sim[y]:
                    continue
                counter = self._counters[(x, y)]
                counter[source] -= 1
                # The pair (source, target) just left this view edge's
                # match set, whether or not ``source`` survives.
                changed = True
                if counter[source] == 0 and source in self._sim[x]:
                    self._sim[x].discard(source)
                    self.stats.removed_pairs += 1
                    removals.append((x, source))
        while removals:
            y, w = removals.popleft()
            if not self._sim[y]:
                self._sim = None
                self._counters = {}
                return True
            for x in pattern.predecessors(y):
                counter = self._counters[(x, y)]
                candidates = self._sim[x]
                for v in self._graph.predecessors(w):
                    if v in candidates:
                        counter[v] -= 1
                        if counter[v] == 0:
                            candidates.discard(v)
                            self.stats.removed_pairs += 1
                            removals.append((x, v))
            if not self._sim[y]:
                self._sim = None
                self._counters = {}
                return True
        return changed

    def _relevant(self, source: Node, target: Node) -> bool:
        """Could the inserted edge interact with any view edge?"""
        pattern = self.definition.pattern
        for x in pattern.nodes():
            if not self._compatible(x, source):
                continue
            for y in pattern.successors(x):
                if self._compatible(y, target):
                    return True
        return False

    # ------------------------------------------------------------------
    # Extension access
    # ------------------------------------------------------------------
    def extension(self) -> MaterializedView:
        """The current (always consistent) materialized extension.

        Cached behind a dirty flag: repeated reads between updates (or
        across updates that provably left the view unchanged) return
        the same object without rebuilding the edge-match sets.
        """
        cached = self._extension_cache
        if cached is not None:
            return cached
        self.stats.extension_builds += 1
        pattern = self.definition.pattern
        if self._sim is None:
            extension = MaterializedView(
                self.definition, {edge: set() for edge in pattern.edges()}
            )
        else:
            edge_matches: Dict[Tuple[PNode, PNode], Set[Tuple[Node, Node]]] = {}
            for edge in pattern.edges():
                x, y = edge
                targets = self._sim[y]
                edge_matches[edge] = {
                    (v, w)
                    for v in self._sim[x]
                    for w in self._graph.successors(v)
                    if w in targets
                }
            extension = MaterializedView(self.definition, edge_matches)
        self._extension_cache = extension
        return extension

    @property
    def graph(self) -> DataGraph:
        """Read-only view of the tracker's graph (for assertions)."""
        return self._graph


class IncrementalViewSet:
    """Maintain a whole view cache under one shared update stream.

    Tracks one graph copy (not one per view) and fans each update out to
    per-view :class:`IncrementalView` state (constructed with
    ``shared=True``).  The public surface mirrors the cache workflow:
    apply updates -- singly or as :class:`Delta` batches -- then read
    fully consistent extensions, or a
    :class:`~repro.views.storage.ViewSet` snapshot via
    :meth:`as_viewset`.  Per-update change accounting
    (:attr:`seq` / :meth:`changed_since`) tells cache layers exactly
    which views an update stream touched.

    Bounded view definitions are *not* maintainable (their extensions
    shift non-locally with distances); they are skipped at construction
    and their names recorded in :attr:`skipped_bounded` so owners (see
    :meth:`~repro.views.storage.ViewSet.track`) can warn and flag them
    stale after updates.
    """

    def __init__(
        self,
        definitions: Iterable[ViewDefinition],
        graph: DataGraph,
        *,
        budget: Optional[int] = None,
    ) -> None:
        self._graph = graph.copy()
        self._budget = budget
        self._trackers: Dict[str, IncrementalView] = {}
        self._seq = 0
        self._changed_at: Dict[str, int] = {}
        skipped: List[str] = []
        for definition in definitions:
            if isinstance(definition.pattern, BoundedPattern):
                # Bounded views change non-locally under updates (the
                # whole distance index can shift); they are recorded --
                # not tracked -- so callers can flag them stale.
                skipped.append(definition.name)
                continue
            self._trackers[definition.name] = IncrementalView(
                definition, self._graph, shared=True, budget=budget
            )
        self.skipped_bounded: Tuple[str, ...] = tuple(skipped)

    def names(self) -> List[str]:
        """Names of the maintained views, in registration order."""
        return list(self._trackers)

    def definition(self, name: str) -> ViewDefinition:
        """The definition of maintained view ``name``."""
        return self._trackers[name].definition

    @property
    def graph(self) -> DataGraph:
        """The set's maintained graph copy.

        This *is* the current state of ``G`` as far as the maintained
        views are concerned; the engine adopts it on
        ``attach_maintenance`` so direct evaluation and snapshot
        refresh follow the same update stream.  Treat it as read-only:
        mutations must flow through :meth:`insert_edge` /
        :meth:`delete_edge` / :meth:`apply_delta`.
        """
        return self._graph

    @property
    def budget(self) -> Optional[int]:
        """The shared affected-area budget (``None``: never fall back)."""
        return self._budget

    # ------------------------------------------------------------------
    # Change accounting (what cache layers key on)
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """Number of updates applied so far (skipped ops excluded)."""
        return self._seq

    def changed_since(self, seq: int) -> List[str]:
        """Views whose extensions changed after update number ``seq``
        (in registration order) -- the minimal eviction/refresh set for
        a consumer that last synchronized at ``seq``."""
        return [
            name
            for name in self._trackers
            if self._changed_at.get(name, 0) > seq
        ]

    def stats(self) -> Dict[str, ViewStats]:
        """Per-view cumulative maintenance counters."""
        return {name: tracker.stats for name, tracker in self._trackers.items()}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, source: Node, target: Node) -> bool:
        """Apply one edge insertion across every maintained view.

        Irrelevant insertions (no label-compatible view edge) cost
        ``O(1)`` per view edge; relevant ones revive matches through
        the affected-area closure (recomputing only the views whose
        closure exceeds the budget).  Returns whether any view
        extension changed; already-present edges are a no-op.
        """
        if self._graph.has_edge(source, target):
            return False
        self._graph.add_edge(source, target)
        return self._fan_out("_after_insert", source, target)

    def delete_edge(self, source: Node, target: Node) -> bool:
        """Apply one edge deletion: shared removal, then each view's
        witness-counter cascade prunes exactly the invalidated matches.
        Returns whether any view extension changed; missing edges are a
        no-op (mirroring :meth:`insert_edge`)."""
        if not self._graph.has_edge(source, target):
            return False
        self._graph.remove_edge(source, target)
        return self._fan_out("_after_delete", source, target)

    def _fan_out(self, method: str, source: Node, target: Node) -> bool:
        self._seq += 1
        any_changed = False
        for name, tracker in self._trackers.items():
            if getattr(tracker, method)(source, target):
                self._changed_at[name] = self._seq
                any_changed = True
        return any_changed

    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a :class:`Delta` batch as one maintenance round.

        Ops apply in order (already-present insertions and missing
        deletions are skipped), each bumping :attr:`seq` -- the batch
        buys coalesced *accounting*, not reordering.  The returned
        :class:`DeltaReport` names the views the whole round actually
        changed, which is what cache layers evict.
        """
        before = {
            name: tracker.stats.snapshot()
            for name, tracker in self._trackers.items()
        }
        start_seq = self._seq
        applied = skipped = 0
        with trace.span("maintenance.delta") as delta_span:
            for op, source, target in delta:
                present = self._graph.has_edge(source, target)
                if (op == INSERT) == present:
                    skipped += 1
                    continue
                if op == INSERT:
                    self.insert_edge(source, target)
                else:
                    self.delete_edge(source, target)
                applied += 1
            if delta_span is not None:
                delta_span.set(applied=applied, skipped=skipped)
        per_view = {}
        for name, tracker in self._trackers.items():
            after = tracker.stats.snapshot()
            per_view[name] = {
                key: after[key] - before[name][key] for key in after
            }
        report = DeltaReport(
            applied=applied,
            skipped=skipped,
            changed_views=tuple(self.changed_since(start_seq)),
            per_view=per_view,
        )
        _meter_delta(report)
        return report

    def extension(self, name: str) -> MaterializedView:
        """The current, always-consistent extension of view ``name``."""
        return self._trackers[name].extension()

    def as_viewset(self):
        """A consistent :class:`~repro.views.storage.ViewSet` snapshot
        (definitions plus freshly built extensions)."""
        from repro.views.storage import ViewSet

        views = ViewSet(t.definition for t in self._trackers.values())
        for name, tracker in self._trackers.items():
            views.set_extension(tracker.extension())
        return views
