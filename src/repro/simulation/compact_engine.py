"""The id-space Match kernel over sets: one witness-counter fixpoint,
one extractor.

A direct evaluation of a plain pattern against a frozen
:class:`~repro.graph.compact.CompactGraph` runs :func:`witness_fixpoint`
and reads the answer off with :func:`extract` whenever the snapshot is
one shard of a :class:`~repro.shard.sharded.ShardedGraph` (behind
:mod:`repro.shard.psim`: ghosts, kept state, withdrawals), and on a
whole-graph snapshot (behind :func:`repro.simulation.simulation.match`)
whenever :func:`repro.simulation.array_engine.array_match` declines it
-- too few edges to repay array set-up, or no NumPy.  Entirely in the
snapshot's dense id space:

* candidate sets are sets of ints seeded from the snapshot's label
  buckets and attribute columns
  (:meth:`~repro.graph.compact.CompactGraph.candidate_ids`: a bucket
  copy or a few bisected slices per pattern node, no per-node condition
  call);
* witness counters are built with ``set.intersection`` against the
  snapshot's adjacency rows -- one C call per (candidate, pattern edge)
  instead of a Python loop over successors;
* the per-edge match sets come out as parallel ``(src, tgt)`` id rows,
  which is the form extension payloads store.

Results decode back to original node keys on first read (an
:class:`~repro.simulation.result.IdAnswer`), so a :class:`MatchResult`
from this engine is equal (``==``) to one computed on the mutable dict
backend.  Every id-space evaluation -- here, in
:mod:`repro.simulation.array_engine`,
:mod:`repro.simulation.compact_bounded` and in the shard layer --
returns the same *outcome*: ``(result, id_rows, id_distances)``,
``(MatchResult.empty(), None, None)`` on a failed match.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Callable, Dict, Hashable, NamedTuple, Optional, Sequence, Set, Tuple

from repro.graph.compact import CompactGraph
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.simulation.result import IdAnswer, MatchResult

PNode = Hashable
PEdge = Tuple[PNode, PNode]

#: Id-space candidate sets: ``{pattern node: set of ids}``.
IdSim = Dict[PNode, Set[int]]
#: Id-space edge matches: ``{pattern edge: (source ids, target ids)}``,
#: one row per matched pair, as parallel ``array('q')`` columns.
IdRows = Dict[PEdge, Tuple[array, array]]
#: What every id-space evaluation returns.
Outcome = Tuple[MatchResult, Optional[IdRows], Optional[Dict[Tuple[int, int], int]]]


def no_match() -> Outcome:
    """The outcome of a failed evaluation, ``Qs(G) = {}``."""
    return MatchResult.empty(), None, None


def seed_candidates(pattern, seed: Callable, size: Callable = len) -> Dict:
    """Candidates of every pattern node, ``{u: seed(condition of u)}``
    -- id sets from ``CompactGraph.candidate_ids``, or the array
    kernel's masks, ``size`` counting one node's.  One ``seed`` span
    and one registry write per run (the index itself counts what it
    had to scan)."""
    with trace.span("seed", nodes=pattern.num_nodes) as seed_span:
        sim = {u: seed(pattern.condition(u)) for u in pattern.nodes()}
        seeded = sum(map(size, sim.values()))
        if seed_span is not None:
            seed_span.set(candidates=seeded)
    get_registry().counter("repro_sim_seed_candidates_total").inc(seeded)
    return sim


def sweep_phase(fixpoint: Callable[..., bool], sizes: Callable, *args) -> bool:
    """``fixpoint(*args)`` -- false on a failed match -- under the
    run's ``sweep`` span, whose ``nodes=`` is the candidates left at
    the fixpoint: the sum of ``sizes()``, one per pattern node, asked
    only when traced; 0 on a failed match."""
    with trace.span("sweep") as sweep_span:
        matched = fixpoint(*args)
        if sweep_span is not None:
            sweep_span.set(nodes=sum(sizes()) if matched else 0)
    return matched


def meter_refinement(batches: int, removed: int) -> None:
    """One registry write per fixpoint run, wherever it runs (hot-kernel
    discipline: the loop aggregates in local ints, never per removal)."""
    reg = get_registry()
    reg.counter("repro_sim_batches_total").inc(batches)
    reg.counter("repro_sim_removals_total").inc(removed)


class FixpointState(NamedTuple):
    """A (kept) fixpoint of one pattern over one snapshot.

    ``sim[u]`` holds the refinable candidates (ids below ``own``),
    ``full[u]`` every witness-counting target -- ``sim[u]`` plus the
    *assumed* ids at or above ``own`` -- and ``counters`` the lazily
    materialized witness counts.  All three only shrink, so a kept
    state re-entered with a withdrawal batch is a decrement cascade
    over the affected area, never a recount.  On a snapshot without
    ghosts ``full`` *is* ``sim`` (the same dict).
    """

    sim: IdSim
    full: IdSim
    counters: Dict[PEdge, Dict[int, int]]


def witness_fixpoint(
    pattern,
    snapshot: CompactGraph,
    own: int,
    state: Optional[FixpointState] = None,
    withdrawn: Optional[IdSim] = None,
    pruned: Optional[IdSim] = None,
) -> Optional[FixpointState]:
    """The greatest simulation fixpoint of ``pattern`` over ``snapshot``.

    The usual witness-counter refinement (drop a candidate with no
    surviving witness for some pattern edge) with two layout-enabled
    twists:

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

    The shard contract is the only generalisation.  Ids at or above
    ``own`` are *assumed*: they witness pattern edges like any
    candidate but are never refined here (a shard's ghosts, whose
    status is the coordinator's to decide).  A first run (``state is
    None``) seeds from the candidate index; a re-run continues a kept
    ``state`` from the ``withdrawn`` assumptions, which enter as
    ordinary removal batches (the kernel consumes the sets).  A caller
    that passes ``pruned`` gets the ids this run removed, per pattern
    node -- the delta a coordinator turns into withdrawals elsewhere --
    and emptied sets do not end the run: matches may live in another
    shard.  Without a consumer for removals the snapshot is the whole
    graph, so the first emptied set is a failed match and the run
    returns ``None`` at once.  Whether there are assumed ids at all is
    read off the snapshot (``own == snapshot.num_nodes``: no split
    pass, ``full`` aliases ``sim``), never passed in.
    """
    ghosts = own < snapshot.num_nodes
    if state is None:
        full = seed_candidates(pattern, snapshot.candidate_ids)
        sim = full
        if ghosts:
            sim = {u: {i for i in ids if i < own} for u, ids in full.items()}
        if pruned is None and not all(sim.values()):
            return None
        state = FixpointState(sim, full, {edge: {} for edge in pattern.edges()})
        withdrawn = None  # a fresh state was seeded with nothing to take back
    matched = sweep_phase(
        _refine, lambda: map(len, state.sim.values()),
        pattern, snapshot, ghosts, state, withdrawn, pruned,
    )
    return state if matched else None


def _refine(
    pattern,
    snapshot: CompactGraph,
    ghosts: bool,
    state: FixpointState,
    withdrawn: Optional[IdSim],
    pruned: Optional[IdSim],
) -> bool:
    """:func:`witness_fixpoint` after seeding: the first witness pass
    over a fresh state (or the ``withdrawn`` batches into a kept one),
    then removal batches to the fixpoint.  False on a failed
    whole-graph match."""
    succ = snapshot.succ_rows
    pred = snapshot.pred_rows
    sim, full, counters = state
    # pending[u] accumulates ids that left full(u) and whose departure
    # has not yet been propagated to the predecessor pattern nodes.
    pending: IdSim = {}
    if withdrawn is None:
        for u in pattern.nodes():
            doomed: Set[int] = set()
            for u1 in pattern.successors(u):
                no_witness = full[u1].isdisjoint
                doomed.update(v for v in sim[u] if no_witness(succ[v]))
            if doomed:
                sim[u] -= doomed
                if ghosts:
                    full[u] -= doomed
                if pruned is not None:
                    pruned[u] = set(doomed)
                elif not sim[u]:
                    return False
                pending[u] = doomed
    else:
        for u, refuted in withdrawn.items():
            full[u] -= refuted
            pending[u] = refuted

    batches = 0
    removals = 0
    while pending:
        u1, removed = pending.popitem()
        batches += 1
        removals += len(removed)
        # Candidates that might have lost a witness: predecessors of any
        # removed id.
        touched = set().union(*map(pred.__getitem__, removed))
        if not touched:
            continue
        lost = removed.intersection
        for u in pattern.predecessors(u1):
            candidates = sim[u]
            affected = candidates & touched
            if not affected:
                continue
            # A counter materialized mid-propagation must count every
            # witness whose departure has not been *processed* yet:
            # full(u1) plus anything still queued for u1 (a self-loop
            # pattern edge can re-queue ids for u1 during this very
            # pop).  The current batch is excluded from both, so it
            # needs no decrement on a fresh counter; queued ids will
            # decrement exactly once when their own batch pops.
            queued = pending.get(u1)
            witnesses = ((full[u1] | queued) if queued else full[u1]).intersection
            edge_counter = counters[(u, u1)]
            newly: Set[int] = set()
            for v in affected:
                count = edge_counter.get(v)
                if count is None:
                    count = len(witnesses(succ[v]))
                else:
                    count -= len(lost(succ[v]))
                edge_counter[v] = count
                if count == 0:
                    newly.add(v)
            if not newly:
                continue
            candidates -= newly
            if ghosts:
                full[u] -= newly
            if pruned is not None:
                gone = pruned.get(u)
                if gone is None:
                    pruned[u] = set(newly)
                else:
                    gone |= newly
            elif not candidates:
                meter_refinement(batches, removals)
                return False
            queued = pending.get(u)
            if queued is None:
                pending[u] = newly
            else:
                queued |= newly
    meter_refinement(batches, removals)
    return True


def decode_outcome(
    snapshot: CompactGraph,
    sim: IdSim,
    rows: IdRows,
    global_row: Optional[Sequence[int]] = None,
    id_distances: Optional[Dict[Tuple[int, int], int]] = None,
) -> Outcome:
    """Package surviving candidates and their edge-match rows as an
    outcome: a lazy result over the rows and the candidates (as
    ``array('q')``) whose node and pair sets decode through the
    snapshot's own table (a ghost carries its key) on first read, and
    ``global_row`` -- a shard's local -> composite id map -- moves the
    rows into the id space extension rows are written in."""
    ids = {u: array("q", found) for u, found in sim.items()}
    result = IdAnswer(ids, rows, snapshot.node_table).result()
    if global_row is not None:
        to_global = global_row.__getitem__
        rows = {
            edge: (array("q", map(to_global, src)), array("q", map(to_global, tgt)))
            for edge, (src, tgt) in rows.items()
        }
    return result, rows, id_distances


def extract(
    pattern,
    snapshot: CompactGraph,
    state: FixpointState,
    global_row: Optional[Sequence[int]] = None,
) -> Outcome:
    """The outcome of a finished fixpoint: for every pattern edge the
    surviving candidates' adjacency rows cut to the surviving targets
    (at the fixpoint every candidate has a witness, and the surviving
    assumptions are exactly the true boundary matches, so assumed
    witnesses are emitted like internal ones), decoded under the run's
    ``decode`` span."""
    succ = snapshot.succ_rows.__getitem__
    sim = state.sim
    rows: IdRows = {}
    for edge in pattern.edges():
        u, u1 = edge
        sources = list(sim[u])
        found = list(map(state.full[u1].intersection, map(succ, sources)))
        rows[edge] = (
            array("q", chain.from_iterable(map(repeat, sources, map(len, found)))),
            array("q", chain.from_iterable(found)),
        )
    return decode_phase(decode_outcome, snapshot, sim, rows, global_row)


def decode_phase(package: Callable[..., Outcome], *args, **kwargs) -> Outcome:
    """``package(...)`` under the run's ``decode`` span, which says
    what was packaged: ``rows=`` edge rows and ``nodes=`` node matches,
    each summed over the pattern and counted in ids (node keys are
    decoded on first read, after the span)."""
    with trace.span("decode") as decode_span:
        outcome = package(*args, **kwargs)
        if decode_span is not None:
            result = outcome[0]
            decode_span.set(rows=result.result_size, nodes=result.total_node_matches())
    return outcome


def run_match(
    array_kernel: Callable, set_kernel: Callable, *args, **attrs
) -> Outcome:
    """One whole-graph evaluation under its ``match`` span: the array
    kernel's outcome for ``args``, or the set kernel's when the array
    kernel declines (``None``).  The span says which ran (``kernel=``)
    and how many edge rows survived (``rows=``: the answer's pairs, 0
    on a failed match), plus ``attrs``; under it, one child span per
    phase the run reached -- ``seed``, ``sweep``, ``decode`` -- on
    either kernel."""
    with trace.span("match") as match_span:
        kernel = "array"
        outcome = array_kernel(*args)
        if outcome is None:
            kernel = "sets"
            outcome = set_kernel(*args)
        if match_span is not None:
            match_span.set(kernel=kernel, rows=outcome[0].result_size, **attrs)
    return outcome


def _set_match(pattern, graph: CompactGraph) -> Outcome:
    state = witness_fixpoint(pattern, graph, graph.num_nodes)
    return no_match() if state is None else extract(pattern, graph, state)


def compact_match_with_ids(pattern, graph: CompactGraph) -> Outcome:
    """Evaluate ``Qs`` on a whole-graph snapshot: the array kernel when
    it takes the snapshot (its call: edge count and NumPy), else this
    module's fixpoint in its no-ghost case."""
    from repro.simulation.array_engine import array_match

    return run_match(array_match, _set_match, pattern, graph)
