"""Candidate seeding for the simulation engines.

Every matching engine starts from per-pattern-node candidate sets
``{v : fv(u) holds at v}`` -- the paper's ``O(|Qs||G|)`` term.  A frozen
snapshot answers that from its candidate index
(:meth:`~repro.graph.compact.CompactGraph.candidate_ids`: label buckets
and sorted attribute columns, no per-node condition call).  Everything
else -- the mutable :class:`~repro.graph.digraph.DataGraph`, a
:class:`~repro.shard.sharded.ShardedGraph` read through its node-key API
-- takes the reference path below, which narrows by the label index
where the condition pins a label and tests ``matches`` node by node:

* a plain :class:`~repro.graph.conditions.Label` condition *is* its
  bucket -- no per-node test at all;
* an :class:`~repro.graph.conditions.AttributeCondition` with a label
  restriction filters its bucket only;
* wildcard / label-free predicate conditions scan every node.

Targets without a label index (e.g. a :class:`Pattern` treated as a data
graph during view-match computation) take the explicit-``compatible``
scan path in the engines and never reach this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set

from repro.graph.conditions import AttributeCondition, Label

PNode = Hashable
Node = Hashable


def node_candidates(
    condition, target, pool: Optional[Iterable[Node]] = None
) -> Set[Node]:
    """``{v : condition holds at v}`` over ``target`` (within ``pool``
    when one is given), as node keys.

    ``target`` must expose ``nodes()``, ``labels(v)``, ``attrs(v)`` and
    ``nodes_with_label(label)``, or be a snapshot with a candidate
    index.
    """
    candidate_ids = getattr(target, "candidate_ids", None)
    if candidate_ids is not None:
        found = set(map(target.node_table.__getitem__, candidate_ids(condition)))
        return found if pool is None else found.intersection(pool)
    if pool is None:
        if isinstance(condition, Label):
            return set(target.nodes_with_label(condition.name))
        if isinstance(condition, AttributeCondition) and condition.label:
            pool = target.nodes_with_label(condition.label)
        else:
            pool = target.nodes()
    return {
        v for v in pool if condition.matches(target.labels(v), target.attrs(v))
    }


def condition_candidates(pattern, target) -> Optional[Dict[PNode, Set[Node]]]:
    """Seed ``{u: candidates}`` for evaluating ``pattern`` over ``target``.

    Returns ``None`` as soon as any pattern node has no candidate (the
    pattern cannot match).
    """
    sim: Dict[PNode, Set[Node]] = {}
    for u in pattern.nodes():
        candidates = node_candidates(pattern.condition(u), target)
        if not candidates:
            return None
        sim[u] = candidates
    return sim
