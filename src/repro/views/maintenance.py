"""Incremental maintenance of materialized simulation views.

The paper's practicality argument leans on cached views staying fresh:
"incremental methods are already in place to efficiently maintain
cached pattern views (e.g., [15])".  This module is the view layer of
the delta-driven maintenance pipeline:

* **deletions are incremental**: the maximum simulation after an edge
  deletion is contained in the one before, so the witness-counter
  cascade of the matching engine that built the view
  (:meth:`~repro.simulation.witness.WitnessCounters.cascade`, whose
  counters the view keeps) prunes exactly the invalidated matches --
  cost proportional to the affected area, not to ``|G|``.
* **insertions are incremental too**, in the spirit of the paper's
  [15]: simulation grows monotonically under insertions, so the only
  pairs that can *join* the match are label-compatible ancestors of the
  inserted edge's source.  :meth:`IncrementalView._insert_incremental`
  seeds revival candidates from exactly those pairs (a backward closure
  over the pattern x graph product) and revives them through the same
  cascade, the one both update kinds share.
* **batches** arrive as a :class:`Delta` -- an ordered sequence of edge
  insertions/deletions applied as one maintenance round via
  :meth:`IncrementalViewSet.apply_delta`, with per-view change
  accounting (:meth:`IncrementalViewSet.changed_since`) so downstream
  caches evict only what an update actually touched.

An :class:`IncrementalViewSet` maintains the graph it is given in place
-- there is one ``G``, shared with whatever engine serves from it --
and a :class:`Delta` is its only update.  Its per-view
:class:`IncrementalView` states read that graph and are refreshed by
the set after each op; a mutation that bypasses the set is refused at
the next batch instead of silently desynchronizing the counters.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
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
from repro.graph.io import node_from_json
from repro.graph.pattern import BoundedPattern
from repro.obs import trace
from repro.obs.metrics import SIZE_BUCKETS, get_registry
from repro.simulation.compact_engine import extract, witness_fixpoint
from repro.simulation.result import edge_matches_from_nodes
from repro.simulation.witness import WitnessCounters, simulate
from repro.views.view import MaterializedView, ViewDefinition, snapshot_extension

log = logging.getLogger(__name__)

PNode = Hashable
Node = Hashable

#: Delta op kinds.
INSERT = "insert"
DELETE = "delete"
#: Every spelling of an op kind a delta accepts.
_OPS = {"+": INSERT, "-": DELETE, INSERT: INSERT, DELETE: DELETE}


class Delta:
    """An ordered batch of edge insertions and deletions.

    The unit of work of the maintenance pipeline: one delta flows
    through the graph and the view trackers
    (:meth:`IncrementalViewSet.apply_delta` applies each op, then
    refreshes every view), the graph snapshot (journal-driven refresh)
    and the engine caches as a single maintenance round.  Build one with the fluent helpers::

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
        """Append one op (``+`` / ``-`` spell insert / delete), refusing
        it (``ValueError``) unless it can be applied: a bad op found
        mid-batch would leave the graph moved by the ops before it."""
        kind = _OPS.get(op) if isinstance(op, str) else None
        if kind is None:
            raise ValueError(
                f"a delta op is '+', '-', {INSERT!r} or {DELETE!r}, not {op!r}"
            )
        try:
            hash((source, target))
        except TypeError:
            raise ValueError(
                f"delta edge ({source!r}, {target!r}) names no node key "
                "(node keys must be hashable)"
            ) from None
        self._ops.append((kind, source, target))

    def insert(self, source: Node, target: Node) -> "Delta":
        """Append an edge insertion; returns ``self`` for chaining."""
        self._add(INSERT, source, target)
        return self

    def delete(self, source: Node, target: Node) -> "Delta":
        """Append an edge deletion; returns ``self`` for chaining."""
        self._add(DELETE, source, target)
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
        deletions.  Node keys are decoded as JSON when they parse, the
        way graph files write them (so ``3`` is the integer node 3 and
        ``[1,2]`` the tuple node ``(1, 2)``), and kept as raw strings
        otherwise.  Blank lines and ``#`` comments (full-line only) are
        skipped.

        Malformed input raises :class:`ValueError` naming the offending
        1-based line number: a line with anything other than exactly
        three whitespace-separated tokens (missing operands *and*
        trailing junk alike), an unrecognized op token, or a token that
        decodes to no node key (a JSON object).
        """
        delta = cls()
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
            try:
                delta._add(tokens[0], _parse_key(tokens[1]), _parse_key(tokens[2]))
            except ValueError as err:
                raise ValueError(f"{err} on line {lineno}: {raw.rstrip()!r}") from None
        return delta

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
        return node_from_json(json.loads(token))
    except ValueError:
        return token


@dataclass
class ViewStats:
    """Per-view maintenance counters (cumulative since construction).

    ``incremental_inserts`` counts relevant insertions absorbed by the
    affected-area revival path; ``recomputes`` counts recomputations of
    a view that was empty (there is no counter state to revive from).
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
    :meth:`~repro.engine.engine.QueryEngine.apply_delta`: bounded views
    are not maintained incrementally, so any graph-changing round strands
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
    """One simulation view's witness-counter state over a shared graph.

    Built and driven by :class:`IncrementalViewSet`: it reads ``graph``
    (never mutates it), and the set calls :meth:`_after_insert` /
    :meth:`_after_delete` once each op has been applied to the graph.
    Bounded views change non-locally under updates and are rejected.

    The first state comes from one id-space fixpoint on the graph's
    frozen snapshot (``graph.freeze()``, cached, so every view of a set
    and the catalog serving them share it): its rows are the first
    extension, already bound to that snapshot, and its decoded maximum
    simulation seeds the node-key counters the updates keep.
    """

    def __init__(self, definition: ViewDefinition, graph: DataGraph) -> None:
        if isinstance(definition.pattern, BoundedPattern):
            raise TypeError(
                "IncrementalView maintains simulation views; bounded views "
                "change non-locally under updates (distances), rematerialize "
                "them instead"
            )
        self.definition = definition
        self.stats = ViewStats()
        self._graph = graph
        # The view's maximum simulation and its live counters; ``None``
        # while the view is empty.
        self._fixpoint: Optional[WitnessCounters] = None
        self._extension_cache: Optional[MaterializedView] = None
        self._start(graph.freeze())

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _compatible(self, x: PNode, v: Node) -> bool:
        return self.definition.pattern.condition(x).matches(
            self._graph.labels(v), self._graph.attrs(v)
        )

    def _start(self, snapshot) -> None:
        """The view's state after one witness fixpoint on ``snapshot``:
        the extension as the fixpoint's id rows, and the counters built
        over its decoded maximum simulation (sinks included).  Every
        counter there is at least 1, so building them runs no cascade,
        and they equal the ones :func:`simulate` leaves."""
        pattern = self.definition.pattern
        state = witness_fixpoint(pattern, snapshot, snapshot.num_nodes)
        rows = None if state is None else extract(pattern, snapshot, state)
        self._extension_cache = snapshot_extension(self.definition, snapshot, rows)
        self.stats.extension_builds += 1
        if state is None:
            return
        decode = snapshot.node_table.__getitem__
        sim = {u: set(map(decode, ids)) for u, ids in state.sim.items()}
        graph = self._graph
        lookups = dict.fromkeys(
            pattern.edges(), (graph.successors, graph.predecessors)
        )
        self._fixpoint = WitnessCounters(pattern, sim, lookups)

    def _recompute(self) -> None:
        self._fixpoint = simulate(self.definition.pattern, self._graph)
        self._extension_cache = None

    # ------------------------------------------------------------------
    # Update internals (graph already mutated by the set)
    # ------------------------------------------------------------------
    def _after_insert(self, source: Node, target: Node) -> bool:
        """Refresh state after ``source -> target`` joined the graph."""
        self.stats.insertions += 1
        if not self._relevant(source, target):
            # No label-compatible view edge: provably no effect, O(1)
            # per pattern edge.
            self.stats.irrelevant_inserts += 1
            return False
        if self._fixpoint is None:
            # No counter state to revive from (rare: the view was
            # entirely empty) -- recompute.
            self.stats.recomputes += 1
            self._recompute()
            return self._fixpoint is not None
        changed, revived, area = self._insert_incremental(source, target)
        self.stats.incremental_inserts += 1
        self.stats.revived_pairs += revived
        self.stats.affected_area += area
        if changed:
            self._extension_cache = None
        return changed

    def _insert_incremental(
        self, source: Node, target: Node
    ) -> Tuple[bool, int, int]:
        """Affected-area revival after ``source -> target`` was added.

        Simulation is monotone under insertions, so the new maximum
        simulation extends the tracked one; the only candidates that
        can join are label-compatible pairs whose data node reaches
        ``source`` backwards along a compatible pattern path.  The
        method (1) collects that candidate closure, (2) tentatively
        admits all candidates and rebuilds exactly the witness counters
        the admission could have changed, then (3) runs the standard
        counter-cascade refinement, which can only evict tentative
        candidates.  Returns ``(extension changed, pairs revived,
        affected-area size)``.
        """
        pattern = self.definition.pattern
        graph = self._graph
        fixpoint = self._fixpoint
        assert fixpoint is not None
        sim = fixpoint.sim

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
                    queue.append(pair)

        # --- (2) tentative admission + affected counters --------------
        # Counters to rebuild: every revived pair's own, and the old
        # pairs whose witness sets may have grown -- predecessors of
        # revived pairs, plus the inserted edge's own source.  They are
        # rebuilt from scratch against the admitted state, which keeps
        # them exact for the cascade below (and for every later
        # deletion).
        recount: Set[Tuple[PNode, PNode, Node]] = set()
        for y, w in in_r:
            for x in pattern.predecessors(y):
                present = sim[x]
                for v in graph.predecessors(w):
                    if v in present:
                        recount.add((x, y, v))
        for x in pattern.nodes():
            if source in sim[x]:
                for y in pattern.successors(x):
                    recount.add((x, y, source))
        for x, v in in_r:
            sim[x].add(v)
            for y in pattern.successors(x):
                recount.add((x, y, v))
        counters = fixpoint.children
        for x, y, v in recount:
            counters[(x, y)][v] = len(sim[y].intersection(graph.successors(v)))

        # --- (3) cascade: only tentative candidates can fall ----------
        # (the old simulation is still a valid simulation of the grown
        # graph, so no old pair's counter reaches zero).
        removals: deque = deque()
        for pair in in_r:
            x, v = pair
            if any(counters[(x, y)][v] == 0 for y in pattern.successors(x)):
                sim[x].discard(v)
                removals.append(pair)
        fixpoint.cascade(removals)
        survived = sum(1 for x, v in in_r if v in sim[x])
        if survived:
            changed = True
        else:
            # No pair revived, but the inserted edge itself may be a
            # fresh match of some view edge.
            changed = any(
                source in sim[x] and target in sim[y]
                for x, y in pattern.edges()
            )
        return changed, survived, len(in_r)

    def _after_delete(self, source: Node, target: Node) -> bool:
        """Counter cascade after ``source -> target`` left the graph;
        returns whether any match pair was lost."""
        self.stats.deletions += 1
        fixpoint = self._fixpoint
        if fixpoint is None:
            # The view was empty; deletions cannot revive it.
            return False
        pattern = self.definition.pattern
        sim = fixpoint.sim
        # Every view edge the deleted edge witnessed, read before any
        # removal: a self-loop witnesses both (x, y) and (y, x), and
        # dropping ``source`` from sim[x] first must not hide the other.
        witnessed = [
            (x, y)
            for x in pattern.nodes()
            if source in sim[x]
            for y in pattern.successors(x)
            if target in sim[y]
        ]
        if not witnessed:
            return False
        before = sum(map(len, sim.values()))
        removals: deque = deque()
        for x, y in witnessed:
            counter = fixpoint.children[(x, y)]
            counter[source] -= 1
            if counter[source] == 0 and source in sim[x]:
                sim[x].discard(source)
                removals.append((x, source))
        if fixpoint.cascade(removals):
            self.stats.removed_pairs += before - sum(map(len, sim.values()))
        else:
            # Some match set emptied: the view lost every pair it held.
            self.stats.removed_pairs += before
            self._fixpoint = None
        # The pair (source, target) left each witnessed view edge's
        # match set, whether or not ``source`` survived.
        self._extension_cache = None
        return True

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
        if self._fixpoint is None:
            edge_matches = {edge: set() for edge in pattern.edges()}
        else:
            edge_matches = edge_matches_from_nodes(
                pattern.edges(), self._fixpoint.sim, self._graph.successors
            )
        extension = MaterializedView(self.definition, edge_matches)
        self._extension_cache = extension
        return extension


class IncrementalViewSet:
    """Maintain a whole view cache under one update stream.

    Maintains ``graph`` itself, in place -- the same object the serving
    engine evaluates on -- and fans each op of a :class:`Delta` out to
    per-view :class:`IncrementalView` state.  :meth:`apply_delta` is
    the one update method; read fully consistent extensions with
    :meth:`extension`.  Per-op change accounting (:attr:`seq` /
    :meth:`changed_since`) tells cache layers exactly which views an
    update stream touched.

    The graph must change only through :meth:`apply_delta`: the set
    records ``graph.version`` after its own ops and refuses the next
    batch (``RuntimeError``) if anything else moved it.  Construction
    freezes it (once: the freeze is cached) and runs one id-space
    fixpoint per view there, so the first extensions are already bound
    to the snapshot an engine over ``graph`` serves.

    Bounded view definitions are *not* maintainable (their extensions
    shift non-locally with distances); they are skipped at construction
    and their names recorded in :attr:`skipped_bounded` so owners (the
    engine's catalog) can flag them stale after updates.
    """

    def __init__(self, definitions: Iterable[ViewDefinition], graph: DataGraph) -> None:
        self._graph = graph
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
            self._trackers[definition.name] = IncrementalView(definition, graph)
        if self._trackers:
            # Serving reads the view rows, not the adjacency rows the
            # fixpoints decoded (~9 MiB on a 90k-edge graph), and every
            # snapshot refresh would copy them.
            graph.freeze().drop_decoded_rows()
        self.skipped_bounded: Tuple[str, ...] = tuple(skipped)
        self._version = graph.version

    def names(self) -> List[str]:
        """Names of the maintained views, in registration order."""
        return list(self._trackers)

    def definition(self, name: str) -> ViewDefinition:
        """The definition of maintained view ``name``."""
        return self._trackers[name].definition

    @property
    def graph(self) -> DataGraph:
        """The maintained graph -- the object passed in, not a copy.
        Read it freely; change it only through :meth:`apply_delta`."""
        return self._graph

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
    def apply_delta(self, delta: Delta) -> DeltaReport:
        """Apply a :class:`Delta` batch as one maintenance round.

        Ops apply to the graph in order (already-present insertions and
        missing deletions are skipped), each bumping :attr:`seq` and
        fanned out to every view: irrelevant insertions (no
        label-compatible view edge) cost ``O(1)`` per view edge,
        relevant ones revive matches through the affected-area closure,
        and deletions run the witness-counter cascade.  The batch buys
        coalesced *accounting*, not reordering: the returned
        :class:`DeltaReport` names the views the whole round changed,
        which is what cache layers evict.  Raises ``RuntimeError`` when
        the graph was mutated outside this set since its last batch.
        """
        graph = self._graph
        if graph.version != self._version:
            raise RuntimeError(
                f"the maintained graph moved from version {self._version} "
                f"to {graph.version} outside apply_delta(); the view "
                "counters no longer describe it -- route every update "
                "through apply_delta() (or rebuild the IncrementalViewSet)"
            )
        before = {
            name: tracker.stats.snapshot()
            for name, tracker in self._trackers.items()
        }
        start_seq = self._seq
        applied = skipped = 0
        with trace.span("maintenance.delta") as delta_span:
            for op, source, target in delta:
                insert = op == INSERT
                if insert == graph.has_edge(source, target):
                    skipped += 1
                    continue
                if insert:
                    graph.add_edge(source, target)
                else:
                    graph.remove_edge(source, target)
                applied += 1
                self._seq += 1
                for name, tracker in self._trackers.items():
                    refresh = tracker._after_insert if insert else tracker._after_delete
                    if refresh(source, target):
                        self._changed_at[name] = self._seq
            if delta_span is not None:
                delta_span.set(applied=applied, skipped=skipped)
        self._version = graph.version
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
