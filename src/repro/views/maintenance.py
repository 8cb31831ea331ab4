"""Incremental maintenance of materialized simulation views.

The paper's practicality argument leans on cached views staying fresh:
"incremental methods are already in place to efficiently maintain
cached pattern views (e.g., [15])".  This module is the view layer of
the delta-driven maintenance pipeline, entirely in the id space of the
graph's snapshots:

* every view keeps the fixpoint its boot ran on the graph's snapshot
  (:class:`~repro.simulation.compact_engine.FixpointState`: id sets
  and lazy witness counters) and its rows are the extension;
* **batches** arrive as a :class:`Delta` -- an ordered sequence of edge
  insertions/deletions applied as one maintenance round via
  :meth:`IncrementalViewSet.apply_delta`, which builds the next snapshot
  from the latest one (:meth:`~repro.graph.compact.CompactGraph.applied`:
  every id kept) and carries each view over the batch's net edge
  changes;
* a view no change can affect is skipped; the others are *repaired*
  (:func:`~repro.simulation.repair.repair`), in the spirit of
  the paper's [15]: simulation grows under insertions and shrinks under
  deletions, so the revival closure of the inserted edges is admitted,
  the counters the batch moved are recounted or dropped, and the
  refinement re-entered with the pairs left without a witness -- cost
  proportional to the affected area, not to ``|G|``;
* per-view change accounting (:meth:`IncrementalViewSet.changed_since`)
  lets downstream caches evict only what an update actually touched.

An :class:`IncrementalViewSet` freezes the graph it is given once and
from then on holds only snapshots: the graph passed in is never
changed, :attr:`IncrementalViewSet.graph` is the latest snapshot --
the one ``G`` an engine the set is attached to serves from -- and a
:class:`Delta` is its only update.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, NamedTuple, Tuple

from repro.graph.io import node_from_json
from repro.graph.pattern import BoundedPattern
from repro.obs import trace
from repro.obs.metrics import SIZE_BUCKETS, get_registry
from repro.simulation.compact_engine import extract, witness_fixpoint
from repro.simulation.repair import compatibility, repair
from repro.views.view import MaterializedView, ViewDefinition, snapshot_extension

log = logging.getLogger(__name__)

Node = Hashable

#: Delta op kinds.
INSERT = "insert"
DELETE = "delete"
#: Every spelling of an op kind a delta accepts.
_OPS = {"+": INSERT, "-": DELETE, INSERT: INSERT, DELETE: DELETE}


class Delta:
    """An ordered batch of edge insertions and deletions.

    The unit of work of the maintenance pipeline: one delta flows
    through the graph's snapshot (one
    :meth:`~repro.graph.compact.CompactGraph.applied` per batch), the
    view states (:meth:`IncrementalViewSet.apply_delta` carries every
    view over the batch) and the engine caches as a single maintenance
    round.  Build one with the fluent helpers::

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
        mid-batch would leave the batch half read."""
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

    ``insertions`` / ``deletions`` count applied ops, and
    ``irrelevant_inserts`` / ``incremental_inserts`` a batch's net
    inserted edges that are / are not label-compatible with some view
    edge (the latter absorbed by a repair); ``recomputes`` counts boot
    fixpoints re-run (an empty view a batch may grow).
    ``affected_area`` totals the revival-candidate pairs admitted -- the
    cost measure of the paper's [15]-style insertion handling.
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
    :meth:`ViewStats.snapshot`).  ``stale_bounded`` names the views the
    round left stale (filled by
    :meth:`~repro.engine.engine.QueryEngine.apply_delta`: bounded views
    are not maintained incrementally, nor is a catalog view the tracker
    was not given, so any graph-changing round strands their cached
    extensions until rematerialization).
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
    """One simulation view's kept fixpoint over the snapshots of a
    shared graph.

    Built and driven by :class:`IncrementalViewSet`: the set calls
    :meth:`_update` once per batch with the batch's net edge changes in
    the ids of the batch's snapshot.  Bounded views change non-locally
    under updates and are rejected.

    The state is the id-space fixpoint of one
    :func:`~repro.simulation.compact_engine.witness_fixpoint` on the
    set's snapshot (every view of a set and the catalog serving them
    share it), kept with its lazy counters and carried from batch to
    batch by
    :func:`~repro.simulation.repair.repair`; its rows are the
    extension, already bound to the snapshot they were read on.
    """

    def __init__(self, definition: ViewDefinition, snapshot) -> None:
        if isinstance(definition.pattern, BoundedPattern):
            raise TypeError(
                "IncrementalView maintains simulation views; bounded views "
                "change non-locally under updates (distances), rematerialize "
                "them instead"
            )
        self.definition = definition
        self.stats = ViewStats()
        self._start(snapshot)

    def _start(self, snapshot) -> None:
        """The view's state after one witness fixpoint on ``snapshot``
        (``None`` while the view is empty), and its extension."""
        self._state = witness_fixpoint(self.definition.pattern, snapshot, snapshot.num_nodes)
        self._extract(snapshot)

    def _extract(self, snapshot) -> None:
        state = self._state
        pattern = self.definition.pattern
        rows = None if state is None else extract(pattern, snapshot, state)
        self._extension = snapshot_extension(self.definition, snapshot, rows)
        self.stats.extension_builds += 1

    def _update(self, snapshot, inserted, removed, fresh) -> bool:
        """Carry the state over one batch: ``inserted`` / ``removed``
        are its net edge changes as id pairs of ``snapshot`` (which
        extends the snapshot the state is on) and ``fresh`` the ids it
        appended.  A view no change can affect is skipped at
        ``O(changes x view edges)``: an edge present after the batch
        matters only if it is label-compatible with some view edge, a
        removed one only if it was a match, a fresh node only if some
        view node accepts it.  Returns whether the extension changed
        (it is then re-read off the state)."""
        stats = self.stats
        pattern = self.definition.pattern
        edges = pattern.edges()
        compatible = compatibility(pattern, snapshot)

        def matched(sim, s: int, t: int) -> bool:
            return any(s in sim[u] and t in sim[u1] for u, u1 in edges)

        relevant = [
            (s, t) for s, t in inserted
            if any(compatible(u, s) and compatible(u1, t) for u, u1 in edges)
        ]
        stats.irrelevant_inserts += len(inserted) - len(relevant)
        grows = bool(relevant) or any(compatible(u, v) for v in fresh for u in pattern.nodes())
        state = self._state
        if state is None:
            # Deletions cannot revive an empty view; growth re-runs the
            # boot fixpoint.
            if not grows:
                return False
            stats.recomputes += 1
            self._start(snapshot)
            return self._state is not None
        lost = any(matched(state.sim, s, t) for s, t in removed)
        if not (lost or grows):
            return False
        before = sum(map(len, state.sim.values()))
        touched = {s for s, _ in inserted}.union(s for s, _ in removed)
        state, area, revived = repair(
            pattern, snapshot, state, relevant, touched, fresh, compatible
        )
        stats.incremental_inserts += len(relevant)
        stats.affected_area += area
        stats.revived_pairs += revived
        self._state = state
        if state is None:
            stats.removed_pairs += before
        else:
            removed_pairs = before + revived - sum(map(len, state.sim.values()))
            stats.removed_pairs += removed_pairs
            if not (lost or revived or removed_pairs) and not any(
                matched(state.sim, s, t) for s, t in relevant
            ):
                return False
        self._extract(snapshot)
        return True

    def extension(self) -> MaterializedView:
        """The current extension, on the set's latest snapshot: rebuilt
        when a batch changes it, re-stamped onto the batch's snapshot
        otherwise."""
        return self._extension


class IncrementalViewSet:
    """Maintain a whole view cache under one update stream.

    Freezes ``graph`` once (a :class:`~repro.graph.digraph.DataGraph`'s
    cached freeze, or a loaded single snapshot as it is) and from then
    on holds only snapshots: :meth:`apply_delta`, the one update method,
    builds each next one with
    :meth:`~repro.graph.compact.CompactGraph.applied` and carries the
    per-view :class:`IncrementalView` states over it.  ``graph`` itself
    is never changed; :attr:`graph` is the latest snapshot.  Read fully
    consistent extensions with :meth:`extension`.  Per-op change
    accounting (:attr:`seq` / :meth:`changed_since`) tells cache layers
    exactly which views an update stream touched.  Construction runs
    one id-space fixpoint per view on the first snapshot, so the first
    extensions are already bound to the snapshot an engine over
    ``graph`` serves.

    Bounded view definitions are *not* maintainable (their extensions
    shift non-locally with distances); they are skipped at construction
    and their names recorded in :attr:`skipped_bounded` so owners (the
    engine's catalog) can flag them stale after updates.
    """

    def __init__(self, definitions: Iterable[ViewDefinition], graph) -> None:
        snapshot = self._snapshot = graph.freeze()
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
            self._trackers[definition.name] = IncrementalView(definition, snapshot)
        if self._trackers:
            # Serving reads the view rows, not the adjacency rows the
            # fixpoints decoded (~9 MiB on a 90k-edge graph), and every
            # batch's snapshot would copy them.
            snapshot.drop_decoded_rows()
        self.skipped_bounded: Tuple[str, ...] = tuple(skipped)

    def names(self) -> List[str]:
        """Names of the maintained views, in registration order."""
        return list(self._trackers)

    def definition(self, name: str) -> ViewDefinition:
        """The definition of maintained view ``name``."""
        return self._trackers[name].definition

    @property
    def graph(self):
        """The latest snapshot: the graph after every batch so far."""
        return self._snapshot

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

        Ops are read in order against the latest snapshot and the ops
        before them (already-present insertions and missing deletions
        are skipped), each applied one bumping :attr:`seq`.  The applied
        ones build the next snapshot at once
        (:meth:`~repro.graph.compact.CompactGraph.applied`, every id
        kept), and each view is carried over the batch's net edge
        changes in its ids (:meth:`IncrementalView._update`: a skip for
        views no change can affect, else one
        :func:`~repro.simulation.repair.repair` of the kept fixpoint).
        The returned :class:`DeltaReport` names the views the round
        changed, which is what cache layers evict.
        """
        before = {
            name: tracker.stats.snapshot()
            for name, tracker in self._trackers.items()
        }
        start_seq = self._seq
        skipped = inserts = 0
        ops = []
        # Each edge the batch moved: whether it was present before, and now.
        was: Dict[Tuple[Node, Node], bool] = {}
        now: Dict[Tuple[Node, Node], bool] = {}
        snapshot = self._snapshot
        with trace.span("maintenance.delta") as delta_span:
            for op, source, target in delta:
                edge = (source, target)
                present = now[edge] if edge in now else snapshot.has_edge(source, target)
                if (op == INSERT) == present:
                    skipped += 1
                    continue
                was.setdefault(edge, present)
                now[edge] = not present
                ops.append((op, source, target))
                inserts += op == INSERT
                self._seq += 1
            if ops:
                self._advance(snapshot.applied(ops), was, now, inserts, len(ops) - inserts)
            if delta_span is not None:
                delta_span.set(applied=len(ops), skipped=skipped)
        per_view = {}
        for name, tracker in self._trackers.items():
            after = tracker.stats.snapshot()
            per_view[name] = {
                key: after[key] - before[name][key] for key in after
            }
        report = DeltaReport(
            applied=len(ops),
            skipped=skipped,
            changed_views=tuple(self.changed_since(start_seq)),
            per_view=per_view,
        )
        _meter_delta(report)
        return report

    def _advance(self, snapshot, was, now, inserts: int, deletes: int) -> None:
        """Carry every view onto ``snapshot``, the batch's."""
        old, self._snapshot = self._snapshot, snapshot
        id_of = snapshot.id_of
        inserted, removed = [], []
        for edge, present in was.items():
            if now[edge] != present:
                (removed if present else inserted).append((id_of(edge[0]), id_of(edge[1])))
        fresh = range(old.num_nodes, snapshot.num_nodes)
        for name, tracker in self._trackers.items():
            tracker.stats.insertions += inserts
            tracker.stats.deletions += deletes
            if tracker._update(snapshot, inserted, removed, fresh):
                self._changed_at[name] = self._seq
            extension = tracker._extension
            if extension.compact.token != snapshot.snapshot_token:
                # Same rows, new token: every extension sits on the
                # latest snapshot, however many batches a reader skips.
                tracker._extension = extension.rebound(snapshot)

    def extension(self, name: str) -> MaterializedView:
        """The current, always-consistent extension of view ``name``."""
        return self._trackers[name].extension()
