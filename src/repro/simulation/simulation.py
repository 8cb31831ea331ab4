"""Graph simulation: the ``Match`` baseline and the generic engine.

Graph pattern matching via simulation (Section II-A): ``G`` matches
``Qs`` iff there is a binary relation ``S`` over ``Vp x V`` such that
every pattern node has a match and, for each ``(u, v) in S`` and each
pattern edge ``(u, u')``, some data edge ``(v, v')`` has
``(u', v') in S``.  When a match exists the *maximum* one is unique
[21]; :func:`match` computes it (and the per-edge match sets) with a
counter-based worklist refinement in the spirit of Henzinger, Henzinger
and Kopke, giving the ``O(|Qs|^2 + |Qs||G| + |G|^2)`` bound the paper
quotes for [16], [21].

The engine is backend-generic twice over.  It is generic over the
*candidate test*: evaluating a pattern over a data graph uses condition
satisfaction, while view-match computation (Section IV) evaluates a view
over ``Qs`` treated as a data graph using condition *implication* --
both go through :func:`maximum_simulation`.  And it is generic over the
*graph backend*: with no explicit ``compatible`` test, candidates are
seeded from the target's label index
(:func:`~repro.simulation.seeding.condition_candidates`), and targets
with an id space (frozen snapshots, sharded graphs) are answered by
:func:`evaluate`, the one backend dispatch ``match``, ``bounded_match``
and view materialization share.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Optional, Set

from repro.graph.compact import CompactGraph
from repro.graph.pattern import Pattern
from repro.simulation.compact_engine import Outcome, compact_match_with_ids
from repro.simulation.result import MatchResult, edge_matches_from_nodes

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph

PNode = Hashable
Node = Hashable


def maximum_simulation(
    pattern,
    target,
    compatible: Optional[Callable[[PNode, Node], bool]] = None,
) -> Optional[Dict[PNode, Set[Node]]]:
    """Compute the maximum simulation of ``pattern`` over ``target``.

    ``target`` must expose ``nodes()``, ``successors(v)`` and
    ``predecessors(v)`` (:class:`DataGraph`, :class:`CompactGraph` and
    :class:`Pattern` all do).  ``compatible(u, v)`` decides whether data
    node ``v`` may match pattern node ``u`` at the node level; when it
    is omitted the pattern's own node conditions decide, and candidates
    are seeded from the target's label index instead of a full-node
    scan (the target must then carry labels/attributes).

    Returns ``{u: sim(u)}`` with every set nonempty, or ``None`` when
    the pattern has no match (some ``sim(u)`` became empty).
    """
    # --- candidate sets -------------------------------------------------
    if compatible is None:
        from repro.simulation.seeding import condition_candidates

        sim = condition_candidates(pattern, target)
        if sim is None:
            return None
    else:
        sim = {}
        target_nodes = list(target.nodes())
        for u in pattern.nodes():
            candidates = {v for v in target_nodes if compatible(u, v)}
            if not candidates:
                return None
            sim[u] = candidates

    # --- witness counters ----------------------------------------------
    # counters[(u, u1)][v] = |succ(v) & sim(u1)| for v in sim(u): how many
    # witnesses v still has for pattern edge (u, u1).  All counters are
    # built against the untouched candidate sets first; only then are the
    # zero-count candidates removed, so that worklist decrements below
    # stay consistent with the counters.
    counters: Dict[tuple, Dict[Node, int]] = {}
    for u in pattern.nodes():
        for u1 in pattern.successors(u):
            targets = sim[u1]
            counters[(u, u1)] = {
                v: sum(1 for w in target.successors(v) if w in targets)
                for v in sim[u]
            }
    removals: deque = deque()
    for u in pattern.nodes():
        doomed = {
            v
            for u1 in pattern.successors(u)
            for v, count in counters[(u, u1)].items()
            if count == 0
        }
        for v in doomed:
            sim[u].discard(v)
            removals.append((u, v))
        if not sim[u]:
            return None

    # --- worklist refinement ---------------------------------------------
    while removals:
        u1, w = removals.popleft()
        for u in pattern.predecessors(u1):
            edge_counter = counters[(u, u1)]
            candidates = sim[u]
            for v in target.predecessors(w):
                if v in candidates:
                    edge_counter[v] -= 1
                    if edge_counter[v] == 0:
                        candidates.discard(v)
                        removals.append((u, v))
            if not candidates:
                return None
    return sim


def evaluate(
    pattern, graph, bounded: bool = False, distances: bool = False
) -> Optional[Outcome]:
    """The backend dispatch of direct evaluation: the id-space outcome
    ``(result, id_rows, id_distances)`` of ``pattern`` on ``graph``
    -- bounded simulation when ``bounded``, with the distance index
    ``I(V)`` when ``distances`` -- or ``None`` when ``graph`` has no id
    space (a live dict graph; the caller runs the reference engine).

    A frozen :class:`CompactGraph` runs this package's id-space
    engines.  Any other graph plugs in by carrying an
    ``evaluate_ids(pattern, bounded, distances)`` method
    (:class:`~repro.shard.sharded.ShardedGraph` does), so layers above
    this one are reached through the graph they built, never imported
    or probed for here.
    """
    if isinstance(graph, CompactGraph):
        if bounded:
            from repro.simulation.compact_bounded import (
                compact_bounded_match_with_ids,
            )

            return compact_bounded_match_with_ids(pattern, graph, distances)
        return compact_match_with_ids(pattern, graph)
    hook = getattr(graph, "evaluate_ids", None)
    return None if hook is None else hook(pattern, bounded, distances)


def match(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """Evaluate ``Qs`` on ``G`` via graph simulation (the paper's Match).

    ``graph`` may be a mutable :class:`DataGraph`, a frozen
    :class:`CompactGraph`, or a
    :class:`~repro.shard.sharded.ShardedGraph`; snapshots take the
    integer-id fast path, sharded graphs the partial-evaluation path,
    and all produce an equal result.  Returns the unique maximum result
    ``{(e, Se)}`` as a :class:`MatchResult`; the empty result when
    ``G`` does not match.
    """
    evaluated = evaluate(pattern, graph)
    if evaluated is not None:
        return evaluated[0]
    sim = maximum_simulation(pattern, graph)
    if sim is None:
        return MatchResult.empty()
    edge_matches = edge_matches_from_nodes(
        pattern.edges(), sim, graph.successors
    )
    return MatchResult(sim, edge_matches)


def simulates(pattern: Pattern, graph: DataGraph) -> bool:
    """``Qs E_sim G``: does ``G`` match ``Qs`` via simulation?"""
    return bool(match(pattern, graph))
