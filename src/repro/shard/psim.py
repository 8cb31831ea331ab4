"""Partial-evaluation maximum simulation over a sharded graph.

This is the classic distributed-simulation recipe (the setting of
conf_icde_FanWW14 Section VII, where views are cached because ``G`` is
too large to touch per query), reproduced in-process:

1. **Local step** -- every shard runs the one id-space Match kernel
   (:func:`repro.simulation.compact_engine.witness_fixpoint`, the very
   fixpoint ``match`` runs on a whole-graph snapshot) over its own
   snapshot, treating ghost nodes as *assumptions*: a ghost is presumed
   to match a pattern node whenever the coordinator has not (yet)
   refuted it.  Because a shard owns the full out-adjacency of its
   nodes, the local greatest fixpoint is exact relative to those
   assumptions.
2. **Exchange step** -- each local run reports the internal ids it
   pruned; the coordinator translates them through the boundary
   bridges into withdrawn assumptions for exactly the shards ghosting
   those nodes (each id leaves the shrinking simulation once, so every
   withdrawal is unique by construction).
3. **Iterate** -- withdrawn shards re-run *incrementally*: the
   withdrawal batch enters the same counter cascade as any removal, so
   a re-run costs the affected area, not the shard.  Assumptions only
   ever shrink, so the loop reaches a fixpoint in finitely many
   rounds; at that point local results glue into precisely the
   single-machine maximum simulation (the initial assumptions
   over-approximate the true boundary matches, and every removal is
   justified by a violated simulation condition, so the
   greatest-fixpoint invariant is preserved throughout).

Local steps run one shard after another in the calling thread.  Each
evaluation owns its shards' fixpoint states (:class:`_Evaluation`), so
a re-run continues from the state its previous run left, and the
states are dropped with the evaluation.  Results decode to original
node keys -- or to the sharded graph's composite global id space for
view materialization (:func:`repro.views.view.materialize`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.simulation.compact_engine import (
    FixpointState,
    IdRows,
    Outcome,
    decode_phase,
    extract,
    no_match,
    witness_fixpoint,
)
from repro.simulation.result import IdAnswer, MatchResult

if TYPE_CHECKING:
    from repro.shard.sharded import ShardedGraph

PNode = Hashable
Node = Hashable

#: Shard-local simulation: pattern node -> set of *internal* local ids.
LocalSim = Dict[PNode, Set[int]]


@dataclass
class PSimStats:
    """Telemetry of one partial-evaluation run."""

    shards: int = 0
    rounds: int = 0
    local_runs: int = 0
    invalidated: int = 0
    initial_assumptions: int = 0
    per_round_invalidated: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# The coordinator: assumption exchange to the global fixpoint
# ----------------------------------------------------------------------
class _Evaluation:
    """One pattern driven to its global fixpoint, owning the fixpoint
    state of every shard.

    Round 1 runs every shard with label-index seeding (assumptions
    start as each shard's condition-matching ghosts -- the same
    optimistic superset the owner seeds from, so both sides agree on
    round zero).  The exchange is *removal-driven*: each local run
    reports the internal ids it pruned, the coordinator translates
    them through the boundary bridges into withdrawal batches, and
    only the shards that lost an assumption re-run -- continuing from
    their kept state, so a re-run is a decrement cascade over the
    affected area.  Every id leaves its (shrinking) simulation set
    exactly once, so each translated withdrawal is unique by
    construction -- the coordinator needs no view of the assumption
    sets at all.  Work per round is therefore proportional to the
    invalidated area, not to the boundary size.
    """

    __slots__ = ("pattern", "sharded", "stats", "states")

    def __init__(self, pattern, sharded: ShardedGraph) -> None:
        self.pattern = pattern
        self.sharded = sharded
        self.stats = PSimStats(shards=sharded.num_shards)
        self.states: List[Optional[FixpointState]] = [None] * sharded.num_shards

    def run(self) -> Outcome:
        """Rounds of local steps and exchange until no assumption is
        withdrawn; then the outcome -- the result plus the composite-id
        edge-match rows, the form extension payloads store -- or the
        failed match."""
        k = self.sharded.num_shards
        stats = self.stats
        withdrawn: List[Optional[LocalSim]] = [None] * k
        active: Sequence[int] = range(k)
        while active:
            stats.rounds += 1
            stats.local_runs += len(active)
            with trace.span("psim.round", round=stats.rounds, shards=len(active)):
                deltas = [(i, self._local_step(i, withdrawn[i])) for i in active]
            withdrawn = [None] * k
            active = sorted(self._exchange(deltas, withdrawn))
        states = self.states
        if any(
            not any(state.sim[u] for state in states)  # type: ignore[union-attr]
            for u in self.pattern.nodes()
        ):
            return no_match()
        slices = [self._slice(i) for i in range(k)]
        return decode_phase(_merged, self.sharded, slices)

    def _local_step(self, index: int, withdrawn: Optional[LocalSim]) -> LocalSim:
        """One run of the Match kernel under the shard contract: ids at
        or above the shard's own count are its ghosts (*assumed*), a
        kept state re-enters with the coordinator's withdrawal batch.
        Returns the internal ids the run pruned."""
        sharded = self.sharded
        kept = self.states[index]
        pruned: LocalSim = {}
        with trace.span("psim.task", kind="sim", shard=index):
            state = witness_fixpoint(
                self.pattern, sharded.shard(index), sharded.own_count(index),
                kept, withdrawn, pruned,
            )
        if kept is None:
            # Ghost candidates of the first run: the initial assumptions.
            self.stats.initial_assumptions += sum(map(len, state.full.values())) - sum(
                map(len, state.sim.values())
            )
        self.states[index] = state
        return pruned

    def _exchange(
        self,
        deltas: List[Tuple[int, LocalSim]],
        withdrawn: List[Optional[LocalSim]],
    ) -> Set[int]:
        """Every pruned internal id refutes the corresponding ghost
        assumption in the shards that hold one (pre-resolved through the
        boundary bridges, so a removal batch meets each holder in
        set-at-a-time operations); refuted ghosts become the holder's
        next withdrawal batch.  Returns the shards to re-run."""
        sharded = self.sharded
        rerun: Set[int] = set()
        round_invalidated = 0
        for index, removed in deltas:
            if not removed:
                continue
            bridges = sharded.bridges(index)
            for u, ids in removed.items():
                for holder, translate in bridges:
                    common = translate.keys() & ids
                    if not common:
                        continue
                    hit = set(map(translate.__getitem__, common))
                    batches = withdrawn[holder]
                    if batches is None:
                        withdrawn[holder] = {u: hit}
                    else:
                        batch = batches.get(u)
                        if batch is None:
                            batches[u] = hit
                        else:
                            batch |= hit
                    rerun.add(holder)
                    round_invalidated += len(hit)
        self.stats.per_round_invalidated.append(round_invalidated)
        self.stats.invalidated += round_invalidated
        return rerun

    def _slice(self, index: int) -> Tuple[Dict[PNode, array], IdRows]:
        """The kernel's extractor moved through shard ``index``'s local
        -> composite id row: its survivors and edge rows, so the merge
        is row appends."""
        sharded = self.sharded
        row = sharded.global_row(index)

        def to_global(ids) -> array:
            return array("q", map(row.__getitem__, ids))

        with trace.span("psim.task", kind="edges", shard=index):
            state = self.states[index]
            rows = extract(self.pattern, sharded.shard(index), state)
            return (
                {u: to_global(ids) for u, ids in state.sim.items()},  # type: ignore[union-attr]
                {
                    edge: (to_global(src), to_global(tgt))
                    for edge, (src, tgt) in rows.items()
                },
            )


def _merged(sharded: ShardedGraph, slices) -> Outcome:
    """One lazy answer over every shard's ``(ids, rows)`` slice.  A node
    is owned by exactly one shard, so slices merge by concatenation into
    the first, and a set decodes through the owning shard on first read
    (``node_of``), never through a composite node table."""
    (ids, rows), *rest = slices
    for more_ids, more_rows in rest:
        for u, found in more_ids.items():
            ids[u].extend(found)
        for edge, (src, tgt) in more_rows.items():
            rows[edge][0].extend(src)
            rows[edge][1].extend(tgt)
    return IdAnswer(ids, rows, sharded.node_of).result(), rows, None


def _meter_psim(stats: PSimStats) -> None:
    """One registry write per finished evaluation."""
    reg = get_registry()
    reg.counter("repro_psim_rounds_total").inc(stats.rounds)
    reg.counter("repro_psim_local_runs_total").inc(stats.local_runs)
    reg.counter("repro_psim_invalidated_total").inc(stats.invalidated)


def sharded_match_with_ids(
    pattern,
    sharded: ShardedGraph,
    stats_out: Optional[List[PSimStats]] = None,
) -> Outcome:
    """Evaluate ``Qs`` on a sharded graph: the outcome in the sharded
    graph's composite global-id space, its edge-match rows built
    shard-side and concatenated."""
    evaluation = _Evaluation(pattern, sharded)
    with trace.span("psim", shards=sharded.num_shards) as psim_span:
        outcome = evaluation.run()
        if psim_span is not None:
            psim_span.set(
                rounds=evaluation.stats.rounds,
                invalidated=evaluation.stats.invalidated,
            )
    _meter_psim(evaluation.stats)
    if stats_out is not None:
        stats_out.append(evaluation.stats)
    return outcome


def sharded_match(pattern, sharded: ShardedGraph) -> MatchResult:
    """Evaluate ``Qs`` on a sharded graph (the paper's Match, via
    partial evaluation); equal to ``match`` on the unsharded graph."""
    return sharded_match_with_ids(pattern, sharded)[0]


def partial_max_simulation(
    pattern, sharded: ShardedGraph
) -> Optional[Dict[PNode, Set[Node]]]:
    """The node matches of :func:`sharded_match` -- equal to
    single-machine
    :func:`~repro.simulation.simulation.maximum_simulation` on the
    unsharded graph -- or ``None`` when the pattern has no match."""
    return sharded_match(pattern, sharded).node_matches or None


# ----------------------------------------------------------------------
# Bounded patterns over a sharded graph
# ----------------------------------------------------------------------
def sharded_bounded_match_with_ids(
    pattern, sharded: ShardedGraph, with_distances: bool = False
) -> Outcome:
    """Evaluate ``Qb`` on a sharded graph (the paper's BMatch).

    Bounded simulation refines against *path* reachability, which does
    not decompose into per-shard local fixpoints the way edge-witness
    simulation does (a single bounded path may thread through several
    shards).  The engine therefore runs the generic refinement over the
    sharded graph's composite read API -- candidate seeding from the
    composite label index, and every forward distance question answered
    by the per-shard bounded BFS with ghost-distance stitching
    (:meth:`ShardedGraph.descendants_within_ids`).  The result equals
    ``bounded_match`` on the unsharded graph; the id components use the
    composite global-id space, ``id_distances`` (only
    ``with_distances``) being the index ``I(V)``: pair -> shortest
    distance, minimized across view edges.
    """
    from repro.simulation.bounded import (
        bounded_edge_matches,
        maximum_bounded_simulation,
    )

    sim = maximum_bounded_simulation(pattern, sharded)
    if sim is None:
        return no_match()
    per_edge = bounded_edge_matches(
        pattern, sharded, sim, with_distances=with_distances
    )
    id_of = {v: sharded.id_of(v) for v in set().union(*sim.values())}
    id_rows: IdRows = {}
    id_distances: Optional[Dict[Tuple[int, int], int]] = (
        {} if with_distances else None
    )
    for edge, pairs in per_edge.items():
        src = array("q")
        tgt = array("q")
        for pair in pairs:
            key = (id_of[pair[0]], id_of[pair[1]])
            src.append(key[0])
            tgt.append(key[1])
            if id_distances is not None:
                d = pairs[pair]
                previous = id_distances.get(key)
                if previous is None or d < previous:
                    id_distances[key] = d
        id_rows[edge] = (src, tgt)
    edge_matches = {edge: set(pairs) for edge, pairs in per_edge.items()}
    return MatchResult(sim, edge_matches), id_rows, id_distances
