"""The dict witness-counter fixpoint every node-key simulation runs.

:class:`WitnessCounters` is the counter-based worklist refinement in the
spirit of Henzinger, Henzinger and Kopke, written once over dicts of
node keys; dual simulation ([28], Section VIII) adds one more counter
family, the parent witnesses.  Plain, dual and strong simulation, view
matches, dual MatchJoin and view maintenance all run it (the id-space
kernels share none of it).  A snapshot boot never imports this module.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.simulation.seeding import condition_candidates

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
#: A data-node lookup of one pattern edge: successors or predecessors.
Lookup = Callable[[Node], Iterable[Node]]


class WitnessCounters:
    """The witness-counter fixpoint: one maximum simulation and the live
    counters that prove it.

    ``sim`` maps each pattern node to its candidate set and is refined
    in place; it is ``None`` after construction when some set emptied
    (the pattern has no match).  ``lookups[(u, u1)]`` is the pair
    ``(successors, predecessors)`` of data-node lookups witnessing
    pattern edge ``(u, u1)`` -- a graph's adjacency for every edge, or
    per-edge indexes of merged pair sets (dual MatchJoin).

    ``children[(u, u1)][v]`` counts ``successors(v) & sim(u1)`` for
    ``v`` in ``sim(u)``: the witnesses ``v`` still has for the edge.
    With ``dual`` (dual simulation, [28]) ``parents[(u0, u)][v]``
    counts ``predecessors(v) & sim(u0)`` for ``v`` in ``sim(u)`` as
    well, and a candidate falls when either family reaches zero.  Only
    live candidates keep counters: :meth:`cascade` drops a removed
    node's own.
    """

    __slots__ = ("sim", "children", "parents", "_owned", "_watchers")

    def __init__(
        self,
        pattern,
        sim: Dict[PNode, Set[Node]],
        lookups: Mapping[PEdge, Tuple[Lookup, Lookup]],
        dual: bool = False,
    ) -> None:
        self.sim: Optional[Dict[PNode, Set[Node]]] = sim
        self.children: Dict[PEdge, Dict[Node, int]] = {}
        self.parents: Dict[PEdge, Dict[Node, int]] = {}
        # _owned[u]: (family, edge) of every counter that constrains
        # sim(u).  _watchers[u1]: (u, sim(u), family, edge, lookup) for
        # every counter a removal from sim(u1) decrements -- lookup(w)
        # names the candidates of u that w witnessed.  Counters are
        # reached through their family, so one can be replaced.
        owned = self._owned = defaultdict(list)
        watchers = self._watchers = defaultdict(list)
        # All counters are built against the untouched candidate sets
        # first; only then are the zero-count candidates removed, so that
        # cascade decrements stay consistent with the counters.
        for edge in pattern.edges():
            u, u1 = edge
            successors, predecessors = lookups[edge]
            sources, targets = sim[u], sim[u1]
            self.children[edge] = {
                v: len(targets.intersection(successors(v))) for v in sources
            }
            owned[u].append((self.children, edge))
            watchers[u1].append((u, sources, self.children, edge, predecessors))
            if dual:
                self.parents[edge] = {
                    w: len(sources.intersection(predecessors(w))) for w in targets
                }
                owned[u1].append((self.parents, edge))
                watchers[u].append((u1, targets, self.parents, edge, successors))
        removals: deque = deque()
        for u, counters in owned.items():
            doomed = {
                v
                for family, edge in counters
                for v, count in family[edge].items()
                if count == 0
            }
            sim[u].difference_update(doomed)
            removals.extend((u, v) for v in doomed)
        pruned = bool(removals)
        if not self.cascade(removals):
            self.sim = None
        elif pruned:
            # A dict keeps its table through deletions: rebuild each
            # counter at its live size, which is what a caller keeps.
            for family in (self.children, self.parents):
                for edge, counter in family.items():
                    family[edge] = dict(counter)

    def cascade(self, removals: deque) -> bool:
        """The worklist refinement: drain ``removals`` -- pairs
        ``(u1, w)`` already discarded from the simulation -- dropping
        ``w``'s own counters and decrementing, for each counter family
        ``w`` witnessed, the counters of the candidates it witnessed,
        discarding (and queueing) those that reach zero.  Returns
        ``False`` as soon as a candidate set is empty (no match; the
        state is then partial), ``True`` once the queue drained."""
        if not all(self.sim.values()):
            return False
        owned = self._owned
        watchers = self._watchers
        while removals:
            u1, w = removals.popleft()
            for family, edge in owned[u1]:
                family[edge].pop(w, None)
            for u, candidates, family, edge, witnessed in watchers[u1]:
                edge_counter = family[edge]
                for v in witnessed(w):
                    if v in candidates:
                        edge_counter[v] -= 1
                        if edge_counter[v] == 0:
                            candidates.discard(v)
                            removals.append((u, v))
                if not candidates:
                    return False
        return True


def simulate(
    pattern,
    target,
    compatible: Optional[Callable[[PNode, Node], bool]] = None,
    dual: bool = False,
) -> Optional[WitnessCounters]:
    """The maximum simulation of ``pattern`` over ``target`` -- the
    maximum dual simulation when ``dual`` -- with its live counters, or
    ``None`` when the pattern has no match.

    ``target`` must expose ``nodes()``, ``successors(v)`` and
    ``predecessors(v)`` (:class:`DataGraph`, :class:`CompactGraph` and
    :class:`Pattern` all do).  ``compatible(u, v)`` decides whether data
    node ``v`` may match pattern node ``u`` at the node level; when it
    is omitted the pattern's own node conditions decide, and candidates
    are seeded from the target's label index instead of a full-node
    scan (the target must then carry labels/attributes).
    """
    if compatible is None:
        sim = condition_candidates(pattern, target)
        if sim is None:
            return None
    else:
        target_nodes = list(target.nodes())
        sim = {
            u: {v for v in target_nodes if compatible(u, v)}
            for u in pattern.nodes()
        }
    lookups = dict.fromkeys(
        pattern.edges(), (target.successors, target.predecessors)
    )
    fixpoint = WitnessCounters(pattern, sim, lookups, dual)
    return None if fixpoint.sim is None else fixpoint
