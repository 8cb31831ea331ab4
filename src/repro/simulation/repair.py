"""The repair of a kept id-space fixpoint after a batch of edge updates.

View maintenance keeps each view's
:class:`~repro.simulation.compact_engine.FixpointState` from one
snapshot of the graph to the next (a journal refresh keeps every id)
and carries it over each batch with :func:`repair`, which re-enters
:func:`~repro.simulation.compact_engine.witness_fixpoint` rather than
recomputing.  Kept apart from the kernel so that a snapshot boot, which
never maintains, does not load it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Set, Tuple

from repro.graph.compact import CompactGraph
from repro.simulation.compact_engine import FixpointState, IdSim, witness_fixpoint


def compatibility(pattern, snapshot: CompactGraph) -> Callable[[Hashable, int], bool]:
    """``compatible(u, v)``: whether node id ``v`` of ``snapshot``
    satisfies the condition of pattern node ``u``, tested one node at a
    time -- for the few nodes a batch touches, not for seeding."""
    conditions = {u: pattern.condition(u) for u in pattern.nodes()}
    labels, attrs = snapshot.labels_of, snapshot.attrs_of
    return lambda u, v: conditions[u].matches(labels(v), attrs(v))


def repair(
    pattern,
    snapshot: CompactGraph,
    state: FixpointState,
    inserted: Iterable[Tuple[int, int]],
    touched: Set[int],
    fresh: Iterable[int],
    compatible: Callable[[Hashable, int], bool],
) -> Tuple[Optional[FixpointState], int, int]:
    """``state``, the fixpoint of ``pattern`` before a batch of edge
    updates, carried to the fixpoint over ``snapshot``, the graph after
    it with every earlier id kept (a refresh of the snapshot ``state``
    was computed on).

    ``inserted`` are the edges the batch added that some view edge
    accepts, ``touched`` the sources of every edge it added or removed,
    ``fresh`` the ids it appended and ``compatible`` the
    :func:`compatibility` of ``pattern`` on ``snapshot``.
    Insertions only grow a simulation and deletions only shrink it, so
    the new one lies inside the old plus the pairs that reach an
    inserted edge's source backwards through pairs that were not
    matches, or hold a fresh node: that *revival closure* is admitted at
    once.  The counters of the *dirty* pairs -- the touched sources and
    the admitted pairs -- are recounted against that grown state, those
    of the admitted pairs' predecessors (whose witness sets grew) are
    dropped, to be recounted on demand, and the dirty pairs left with no
    witness are withdrawn: re-entered with them, the refinement only
    removes pairs, and each counter it decrements stays exact.  ``state``
    is refined in place.  Returns the new state (``None`` once some set
    emptied), the pairs admitted and the admitted pairs that survived.
    """
    sim = state.sim
    pred = snapshot.pred_rows
    admitted: IdSim = {u: set() for u in pattern.nodes()}
    queue = [(u, v) for v in fresh for u in pattern.nodes() if compatible(u, v)]
    for s, t in inserted:
        for u in pattern.nodes():
            if s not in sim[u] and compatible(u, s) and any(
                compatible(u1, t) for u1 in pattern.successors(u)
            ):
                queue.append((u, s))
    for u, v in queue:
        admitted[u].add(v)
    while queue:
        u1, w = queue.pop()
        for u in pattern.predecessors(u1):
            present, new = sim[u], admitted[u]
            for v in pred[w]:
                if v not in present and v not in new and compatible(u, v):
                    new.add(v)
                    queue.append((u, v))
    dirty: IdSim = {}
    for u, new in admitted.items():
        sim[u] |= new
        dirty[u] = new | sim[u].intersection(touched)
    succ = snapshot.succ_rows
    withdrawn: IdSim = {}
    for (u, u1), counter in state.counters.items():
        for v in set().union(*map(pred.__getitem__, admitted[u1])):
            counter.pop(v, None)
        witnesses = sim[u1].intersection
        for v in dirty[u]:
            counter[v] = count = len(witnesses(succ[v]))
            if not count:
                withdrawn.setdefault(u, set()).add(v)
    area = sum(map(len, admitted.values()))
    state = witness_fixpoint(pattern, snapshot, snapshot.num_nodes, state, withdrawn)
    if state is None or not all(state.sim.values()):
        return None, area, 0
    revived = sum(len(new & state.sim[u]) for u, new in admitted.items())
    return state, area, revived
