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

That refinement is written once, over dicts of node keys, in
:mod:`~repro.simulation.witness` (imported on first use, so a snapshot
boot does not compile it); dual simulation ([28], Section VIII) is the
same fixpoint with the parent witnesses added (:func:`dual_match`).

The engine is backend-generic twice over.  It is generic over the
*candidate test*: evaluating a pattern over a data graph uses condition
satisfaction, while view-match computation (Section IV) evaluates a view
over ``Qs`` treated as a data graph using condition *implication* --
both go through :func:`~repro.simulation.witness.simulate`.  And it is
generic over the *graph backend*: with no explicit ``compatible`` test,
candidates are seeded from the target's label index
(:func:`~repro.simulation.seeding.condition_candidates`), and targets
with an id space (frozen snapshots, sharded graphs) are answered by
:func:`evaluate`, the one backend dispatch ``match``, ``bounded_match``
and view materialization share.
"""

from __future__ import annotations

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
    """Compute the maximum simulation of ``pattern`` over ``target``
    (see :func:`~repro.simulation.witness.simulate` for the arguments).

    Returns ``{u: sim(u)}`` with every set nonempty, or ``None`` when
    the pattern has no match (some ``sim(u)`` became empty).
    """
    from repro.simulation.witness import simulate

    fixpoint = simulate(pattern, target, compatible)
    return None if fixpoint is None else fixpoint.sim


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


def _dict_match(pattern: Pattern, graph, dual: bool) -> MatchResult:
    """The reference engine's answer, on node keys."""
    from repro.simulation.witness import simulate

    fixpoint = simulate(pattern, graph, dual=dual)
    if fixpoint is None:
        return MatchResult.empty()
    sim = fixpoint.sim
    return MatchResult(
        sim, edge_matches_from_nodes(pattern.edges(), sim, graph.successors)
    )


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
    return _dict_match(pattern, graph, dual=False)


def dual_match(pattern: Pattern, graph: DataGraph) -> MatchResult:
    """Evaluate ``Qs`` on ``G`` via dual simulation ([28], Section VIII):
    for ``(u, v) in S`` every incoming pattern edge ``(u0, u)`` must
    also be witnessed by a data edge ``(v0, v)`` with ``(u0, v0) in S``.
    Runs the dict fixpoint with its parent counters on either backend's
    node keys."""
    return _dict_match(pattern, graph, dual=True)


def simulates(pattern: Pattern, graph: DataGraph) -> bool:
    """``Qs E_sim G``: does ``G`` match ``Qs`` via simulation?"""
    return bool(match(pattern, graph))
