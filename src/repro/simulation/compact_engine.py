"""Integer-id simulation engine for :class:`CompactGraph` snapshots.

This is the fast path behind :func:`repro.simulation.simulation.match`
when the target is a frozen snapshot.  It runs the same counter-based
worklist refinement as the generic engine, but entirely in the
snapshot's dense id space:

* candidate sets are sets of ints seeded from the snapshot's label
  buckets and attribute columns
  (:meth:`~repro.graph.compact.CompactGraph.candidate_ids`: a bucket
  copy or a few bisected slices per pattern node, no per-node condition
  call);
* witness counters are built with ``set.intersection`` against the
  snapshot's adjacency rows -- one C call per (candidate, pattern edge)
  instead of a Python loop over successors;
* the per-edge match sets come out grouped by source id
  (``{v: {w...}}``), which is exactly the indexed form view
  materialization stores for the MatchJoin fast path.

Results decode back to original node keys at the very end, so a
:class:`MatchResult` from this engine is equal (``==``) to one computed
on the mutable dict backend.
"""

from __future__ import annotations

import logging
from itertools import repeat
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graph.compact import CompactGraph
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.simulation.result import MatchResult

log = logging.getLogger(__name__)


def _meter_refinement(batches: int, removed: int) -> None:
    """One registry write per fixpoint run (hot-kernel discipline: the
    loop aggregates in local ints, never per-removal)."""
    reg = get_registry()
    reg.counter("repro_sim_batches_total").inc(batches)
    reg.counter("repro_sim_removals_total").inc(removed)

PNode = Hashable
PEdge = Tuple[PNode, PNode]

#: Id-space edge matches: ``{pattern edge: {source id: set of target ids}}``.
IdEdgeMatches = Dict[PEdge, Dict[int, Set[int]]]


def seed_ids(pattern, graph: CompactGraph) -> Dict[PNode, Set[int]]:
    """Id-space candidates of every pattern node, from the snapshot's
    candidate index.  One ``seed`` span and one registry write per run
    (the index itself counts what it had to scan)."""
    with trace.span("seed", nodes=pattern.num_nodes) as seed_span:
        candidate_ids = graph.candidate_ids
        sim = {u: candidate_ids(pattern.condition(u)) for u in pattern.nodes()}
        seeded = sum(map(len, sim.values()))
        if seed_span is not None:
            seed_span.set(candidates=seeded)
    get_registry().counter("repro_sim_seed_candidates_total").inc(seeded)
    return sim


def compact_candidates(
    pattern, graph: CompactGraph
) -> Optional[Dict[PNode, Set[int]]]:
    """:func:`seed_ids`, or ``None`` when some pattern node has no
    candidate (the pattern cannot match)."""
    sim = seed_ids(pattern, graph)
    return sim if all(sim.values()) else None


def refine_batch(
    affected: Set[int],
    succ,
    edge_counter: Dict[int, int],
    intersect_targets,
    intersect_removed,
) -> Set[int]:
    """One witness-counter refinement step over a removal batch.

    The shared inner kernel of every counter-based fixpoint in the
    repository (:func:`compact_maximum_simulation` here, the shard
    -local fixpoint in :mod:`repro.shard.psim`): for each affected
    candidate, either materialize its counter lazily (one C-level
    intersection of its adjacency row against the current target set)
    or decrement it by the batch overlap, and collect the candidates
    whose last witness just left.  ``intersect_targets`` /
    ``intersect_removed`` are bound ``set.intersection`` methods, so
    the caller controls exactly which target universe counts (the
    single-machine engine passes ``sim(u1)`` ∪ still-queued ids, the
    sharded engine its ``full`` internal-plus-ghost sets).
    """
    newly: Set[int] = set()
    for v in affected:
        count = edge_counter.get(v)
        if count is None:
            count = len(intersect_targets(succ[v]))
        else:
            count -= len(intersect_removed(succ[v]))
        edge_counter[v] = count
        if count == 0:
            newly.add(v)
    return newly


def compact_maximum_simulation(
    pattern, graph: CompactGraph
) -> Optional[Dict[PNode, Set[int]]]:
    """Maximum simulation of ``pattern`` over a snapshot, in id space.

    The refinement is the usual witness-counter fixpoint with two
    layout-enabled twists:

    * removals propagate in *batches* -- all ids that left ``sim(u1)``
      since the last visit are processed together, so each affected
      candidate pays C-level ``set`` calls against its adjacency row
      instead of a Python-loop decrement per lost edge;
    * counters are *lazy* -- seeding detects witness-less candidates
      with the early-exiting ``set.isdisjoint``, and a candidate's
      counter is only materialized (one ``set.intersection`` against
      the current target set) the first time a batch touches it.

    A candidate still pays O(degree) once per pattern edge plus O(1)
    per lost witness, so the paper's ``O(|Qs||G| + |G|^2)`` accounting
    is unchanged -- only the constant factor moves out of the
    interpreter.

    Returns ``{u: ids}`` with every set nonempty, or ``None`` when the
    pattern has no match.
    """
    sim = compact_candidates(pattern, graph)
    if sim is None:
        return None
    succ = graph.succ_rows
    pred = graph.pred_rows

    # pending[u] accumulates ids removed from sim(u) whose departure has
    # not yet been propagated to the predecess*or* pattern nodes.
    pending: Dict[PNode, Set[int]] = {}
    counters: Dict[PEdge, Dict[int, int]] = {}
    for u in pattern.nodes():
        doomed: Set[int] = set()
        for u1 in pattern.successors(u):
            counters[(u, u1)] = {}
            no_witness = sim[u1].isdisjoint
            doomed.update(v for v in sim[u] if no_witness(succ[v]))
        if doomed:
            sim[u] -= doomed
            if not sim[u]:
                return None
            pending[u] = doomed

    batches = 0
    removed_total = 0
    while pending:
        u1, removed = pending.popitem()
        batches += 1
        removed_total += len(removed)
        # Candidates that might have lost a witness: predecessors of any
        # removed id.
        touched = set().union(*map(pred.__getitem__, removed))
        if not touched:
            continue
        intersect_removed = removed.intersection
        for u in pattern.predecessors(u1):
            candidates = sim[u]
            affected = candidates & touched
            if not affected:
                continue
            # A counter materialized mid-propagation must count every
            # witness whose departure has not been *processed* yet:
            # sim(u1) plus anything still queued for u1 (a self-loop
            # pattern edge can re-queue ids for u1 during this very
            # pop).  The current batch is excluded from both, so it
            # needs no decrement on a fresh counter; queued ids will
            # decrement exactly once when their own batch pops.
            queued_for_u1 = pending.get(u1)
            if queued_for_u1:
                intersect_targets = (sim[u1] | queued_for_u1).intersection
            else:
                intersect_targets = sim[u1].intersection
            newly = refine_batch(
                affected,
                succ,
                counters[(u, u1)],
                intersect_targets,
                intersect_removed,
            )
            if newly:
                candidates -= newly
                if not candidates:
                    _meter_refinement(batches, removed_total)
                    return None
                queued = pending.get(u)
                if queued is None:
                    pending[u] = newly
                else:
                    queued |= newly
    _meter_refinement(batches, removed_total)
    return sim


def compact_edge_matches(
    pattern, graph: CompactGraph, sim: Dict[PNode, Set[int]]
) -> IdEdgeMatches:
    """Per-edge match sets in id space, grouped by source id."""
    succ = graph.succ_rows
    matches: IdEdgeMatches = {}
    for edge in pattern.edges():
        u, u1 = edge
        intersect = sim[u1].intersection
        grouped: Dict[int, Set[int]] = {}
        for v in sim[u]:
            witnesses = intersect(succ[v])
            if witnesses:
                grouped[v] = witnesses
        matches[edge] = grouped
    return matches


def decode_edge_matches(
    id_matches: IdEdgeMatches, graph: CompactGraph
) -> Dict[PEdge, Set[Tuple]]:
    """Translate id-space edge matches back to node-key pair sets."""
    nodes = graph.node_table
    decode = nodes.__getitem__
    decoded: Dict[PEdge, Set[Tuple]] = {}
    for edge, grouped in id_matches.items():
        pairs: Set[Tuple] = set()
        for v, targets in grouped.items():
            pairs.update(zip(repeat(nodes[v]), map(decode, targets)))
        decoded[edge] = pairs
    return decoded


def compact_match_with_ids(
    pattern, graph: CompactGraph
) -> Tuple[MatchResult, Optional[IdEdgeMatches]]:
    """Evaluate ``Qs`` on a snapshot; also return the id-space matches.

    The second component feeds the compact extension payload view
    materialization stores (``None`` on a failed match).
    """
    sim = compact_maximum_simulation(pattern, graph)
    if sim is None:
        return MatchResult.empty(), None
    id_matches = compact_edge_matches(pattern, graph, sim)
    decode = graph.node_table.__getitem__
    node_matches = {u: set(map(decode, ids)) for u, ids in sim.items()}
    return MatchResult(node_matches, decode_edge_matches(id_matches, graph)), id_matches


def compact_match(pattern, graph: CompactGraph) -> MatchResult:
    """Evaluate ``Qs`` on a snapshot via the id-space fast path."""
    result, _ = compact_match_with_ids(pattern, graph)
    return result
