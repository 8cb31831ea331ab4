"""MatchJoin: answering pattern queries using views (Section III, Fig. 2).

Given ``Qs ⊑ V`` with mapping λ and the materialized extensions
``V(G)``, MatchJoin computes ``Qs(G)`` without accessing ``G``:

1. initialize each pattern edge's match set as the union of the match
   sets of its λ-images (taken from the extensions);
2. run a fixpoint that removes invalid matches: a pair ``(v, v')`` in
   ``Se`` for ``e = (u, u')`` survives only while ``v`` has, for every
   out-edge of ``u``, some remaining pair, and likewise ``v'`` for the
   out-edges of ``u'`` (the simulation conditions of Section II-A).

There are exactly two fixpoints:

* the **kernel** (:func:`sweep_join`, the default) refines at the
  *candidate* level over per-edge ``(src, tgt)`` rows, generic over the
  id type, visiting edges in ascending SCC *rank* order -- the
  bottom-up strategy of Section III, so Lemma 2 holds: on DAG patterns
  every match set is swept at most once.  :func:`match_join`,
  :func:`repro.core.bounded.bmatchjoin.bounded_match_join` and
  :func:`repro.core.rewriting.hybrid_join` are adapters that build rows
  and call it -- in the snapshot's integer id space when every λ-image
  carries a payload of the same snapshot, in node-key space otherwise;
* the **naive** loop (``optimized=False``) is the literal Fig. 2
  while-loop: scan all edges until a full pass makes no change.  It
  exists so Exp-2 (Fig. 8(f)) can measure the optimization, exactly
  like the paper's ``MatchJoin_nopt``, and as the tests' reference.

Total cost of the kernel is ``O(|Qs||V(G)| + |V(G)|^2)``
(Theorem 1(2)).
"""

from __future__ import annotations

import logging
from collections import deque
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.containment import Containment
from repro.errors import NotContainedError, NotMaterializedError, UnsupportedPatternError
from repro.graph.pattern import Pattern
from repro.graph.scc import edge_ranks
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.simulation.result import MatchResult
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView

log = logging.getLogger(__name__)

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]
Extensions = Mapping[str, MaterializedView]

#: The kernel's whole input for one query edge: the λ-images' parallel
#: ``(src_row, tgt_row)`` sequences, the ids occurring as sources and as
#: targets, and -- when the rows are stored match sets adopted
#: unfiltered -- a thunk returning ``(node-key pair set, [source node
#: sets], [target node sets])`` for packaging the edge wholesale.
EdgeRows = Tuple[
    List[Tuple[Sequence, Sequence]], frozenset, frozenset, Optional[Callable]
]


def _check_inputs(
    query: Pattern, containment: Containment, extensions: Extensions
) -> None:
    """Shared precondition checks for every MatchJoin entry point."""
    if not containment.holds:
        raise NotContainedError(containment.uncovered)
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; view extensions store edges, so "
            "evaluate such patterns directly with match() / bounded_match()"
        )
    for edge in query.edges():
        for view_name, _ in containment.mapping.get(edge, ()):
            if view_name not in extensions:
                raise NotMaterializedError(
                    f"extension for view {view_name!r} is required by λ "
                    "but was not provided"
                )


def merge_initial_sets(
    query: Pattern,
    containment: Containment,
    extensions: Extensions,
    bound_of: Optional[Callable] = None,
) -> Dict[PEdge, Set[NodePair]]:
    """Fig. 2 lines 1-4: ``Se := ∪_{e' ∈ λ(e)} Se'`` from the extensions.

    ``bound_of(edge, extension, view_edge)`` is BMatchJoin's hook: where
    it names a bound, only the λ-image's pairs whose ``I(V)`` distance
    respects it enter ``Se``; ``None`` adopts them all."""
    _check_inputs(query, containment, extensions)
    initial: Dict[PEdge, Set[NodePair]] = {}
    for edge in query.edges():
        merged: Set[NodePair] = set()
        for view_name, view_edge in containment.mapping.get(edge, ()):
            extension = extensions[view_name]
            pairs = extension.pairs_of(view_edge)
            bound = bound_of(edge, extension, view_edge) if bound_of else None
            if bound is None:
                merged |= pairs
            else:
                merged.update(
                    pair for pair in pairs if extension.distance_of(pair) <= bound
                )
        initial[edge] = merged
    return initial


# ----------------------------------------------------------------------
# The kernel: rank-ordered row sweeps, delta counters for repeat visits
# ----------------------------------------------------------------------
def sweep_join(
    query: Pattern,
    inputs: Dict[PEdge, EdgeRows],
    decode: Optional[Callable] = None,
) -> Tuple[MatchResult, int]:
    """The candidate-level MatchJoin fixpoint over per-edge rows.

    A pair ``(v, w)`` of edge ``e = (u, u')`` survives Fig. 2 iff ``v``
    stays a valid candidate of ``u`` and ``w`` of ``u'``, where validity
    is the greatest relation in which every candidate has, for each
    out-edge of its pattern node, a row whose target is still valid.
    ``inputs`` maps every query edge to its :data:`EdgeRows`; ids are
    any hashables and ``decode`` maps them to node keys (``None``: they
    already are).  Returns the result and the number of full passes made
    over an edge's rows.

    Edges are visited in ascending rank of their target, so on a DAG
    query every ``valid(u')`` is final before an edge into ``u'`` is
    swept (Lemma 2: one sweep per edge).  A sweep recomputes the live
    sources in one comprehension pass over the raw rows -- everything
    around it is a batch set-op over the key sets.  An edge that comes
    back after its sweep (cyclic queries only) is paid one more pass
    that groups its live rows by target and counts live witnesses per
    source; from then on a shrink of ``valid(u')`` by ``R`` costs
    ``O(Σ_{w∈R} |sources(w)|)``, so no removal chain, however long,
    re-scans the rows.
    """
    edges = query.edges()
    in_edges: Dict[PNode, List[PEdge]] = {}
    valid: Dict[PNode, Set] = {}
    for u in query.nodes():
        in_edges[u] = query.in_edges(u)
        outs = [inputs[e][1] for e in query.out_edges(u)]
        if outs:
            # Simulation semantics: a candidate needs a row on *every*
            # out-edge, so the pool is the source-key intersection.
            pool = outs[0] if len(outs) == 1 else outs[0].intersection(*outs[1:])
            if not pool:
                return MatchResult.empty(), 0
        else:
            # Sink nodes are only ever targets.
            ins = [inputs[e][2] for e in in_edges[u]]
            pool = ins[0] if len(ins) == 1 else ins[0].union(*ins[1:])
        valid[u] = pool

    # Pools start out as the callers' (stored, shared) key sets; a node's
    # set is copied the first time it shrinks and mutated in place after.
    owned: Set[PNode] = set()
    swept: Set[PEdge] = set()
    # Delta mode: edge -> (live sources by target, live witnesses by
    # source), and the targets withdrawn since the edge's last visit.
    delta: Dict[PEdge, Tuple[Dict, Dict]] = {}
    withdrawn: Dict[PEdge, Set] = {}
    sweeps = 0
    rank = edge_ranks(query)
    queue = deque(sorted(edges, key=rank.__getitem__))
    queued: Set[PEdge] = set(edges)
    while queue:
        edge = queue.popleft()
        queued.discard(edge)
        u, u_prime = edge
        candidates = valid[u]
        if edge in delta:
            sources_of, witnesses = delta[edge]
            dead = set()
            for w in withdrawn.pop(edge, ()):
                for v in sources_of.get(w, ()):
                    witnesses[v] -= 1
                    if not witnesses[v]:
                        dead.add(v)
            dead &= candidates
        else:
            live = valid[u_prime]
            rows, _, targets, _ = inputs[edge]
            if edge not in swept:
                if live >= targets:
                    continue  # every stored target is live: no source can die
                swept.add(edge)
                alive = {
                    v
                    for src_row, tgt_row in rows
                    for v, w in zip(src_row, tgt_row)
                    if w in live
                }
                dead = candidates - alive
            else:
                sources_of, witnesses = {}, {}
                for src_row, tgt_row in rows:
                    for v, w in zip(src_row, tgt_row):
                        if w in live and v in candidates:
                            witnesses[v] = witnesses.get(v, 0) + 1
                            sources_of.setdefault(w, []).append(v)
                delta[edge] = sources_of, witnesses
                dead = candidates.difference(witnesses)
            sweeps += 1
        if not dead:
            continue
        if u not in owned:
            owned.add(u)
            valid[u] = candidates = set(candidates)
        candidates -= dead
        if not candidates:
            return MatchResult.empty(), sweeps
        for affected in in_edges[u]:
            if affected in delta:
                withdrawn.setdefault(affected, set()).update(dead)
            if affected not in queued:
                queue.append(affected)
                queued.add(affected)

    # --- package: untouched edges wholesale, the rest in one pass -----
    node_matches: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    for edge in edges:
        u, u_prime = edge
        rows, sources, targets, whole = inputs[edge]
        valid_src = valid[u]
        valid_tgt = valid[u_prime]
        if whole is not None and sources <= valid_src and targets <= valid_tgt:
            # No endpoint candidate of this edge was refined away: every
            # stored pair survives -- no per-pair filter or decode.
            pairs, source_nodes, target_nodes = whole()
            node_matches[u].update(*source_nodes)
            node_matches[u_prime].update(*target_nodes)
        else:
            if decode is None:
                pairs = {
                    (v, w)
                    for src_row, tgt_row in rows
                    for v, w in zip(src_row, tgt_row)
                    if v in valid_src and w in valid_tgt
                }
            else:
                pairs = {
                    (decode(v), decode(w))
                    for src_row, tgt_row in rows
                    for v, w in zip(src_row, tgt_row)
                    if v in valid_src and w in valid_tgt
                }
            node_matches[u].update(pair[0] for pair in pairs)
            node_matches[u_prime].update(pair[1] for pair in pairs)
        edge_matches[edge] = pairs
    return MatchResult(node_matches, edge_matches), sweeps


# ----------------------------------------------------------------------
# Adapters: rows from extensions (id space) or from pair sets (node keys)
# ----------------------------------------------------------------------
def shared_snapshot_token(
    query: Pattern, containment: Containment, extensions: Extensions
):
    """The single snapshot token behind every extension λ references,
    or ``None`` when ids cannot be used: a referenced extension carries
    no payload, payloads come from different snapshots (ids must never
    mix), or the λ mapping references nothing."""
    token = None
    for edge in query.edges():
        for view_name, _ in containment.mapping.get(edge, ()):
            payload = extensions[view_name].compact
            if payload is None:
                return None
            if token is None:
                token = payload.token
            elif payload.token != token:
                return None
    return token


def _id_inputs(
    query: Pattern,
    containment: Containment,
    extensions: Extensions,
    bound_of: Optional[Callable],
) -> Tuple[Dict[PEdge, EdgeRows], Callable]:
    """:func:`merge_initial_sets` in snapshot id space: the λ-images'
    stored rows adopted as they are, or filtered through the id-space
    ``I(V)`` where ``bound_of`` names a bound."""
    inputs: Dict[PEdge, EdgeRows] = {}
    decode = None
    for edge in query.edges():
        rows, sources, targets = [], [], []
        stored: Optional[list] = []
        for view_name, view_edge in containment.mapping.get(edge, ()):
            extension = extensions[view_name]
            payload = extension.compact
            decode = payload.nodes.__getitem__
            bound = bound_of(edge, extension, view_edge) if bound_of else None
            if bound is None:
                rows.append(payload.pair_rows(view_edge))
                sources.append(payload.src_keys[view_edge])
                targets.append(payload.tgt_keys[view_edge])
                if stored is not None:
                    stored.append((extension, payload, view_edge))
                continue
            stored = None
            distance_of = payload.distances.__getitem__
            kept = [
                pair
                for pair in zip(*payload.pair_rows(view_edge))
                if distance_of(pair) <= bound
            ]
            if kept:
                src_row, tgt_row = zip(*kept)
                rows.append((src_row, tgt_row))
                sources.append(frozenset(src_row))
                targets.append(frozenset(tgt_row))
        whole = None
        if stored:
            def whole(stored=stored):
                return (
                    set().union(*(ext.edge_matches[ve] for ext, _, ve in stored)),
                    [p.src_nodes[ve] for _, p, ve in stored],
                    [p.tgt_nodes[ve] for _, p, ve in stored],
                )
        inputs[edge] = (
            rows,
            sources[0] if len(sources) == 1 else frozenset().union(*sources),
            targets[0] if len(targets) == 1 else frozenset().union(*targets),
            whole,
        )
    return inputs, decode


def _key_inputs(
    initial: Dict[PEdge, Set[NodePair]]
) -> Tuple[Dict[PEdge, EdgeRows], None]:
    """Merged node-key pair sets (which the kernel takes ownership of)
    unzipped into rows; ids are the node keys themselves, so there is
    no decode."""
    inputs: Dict[PEdge, EdgeRows] = {}
    for edge, pairs in initial.items():
        src_row = [v for v, _ in pairs]
        tgt_row = [w for _, w in pairs]
        sources, targets = frozenset(src_row), frozenset(tgt_row)
        inputs[edge] = (
            [(src_row, tgt_row)],
            sources,
            targets,
            lambda pairs=pairs, sources=sources, targets=targets: (
                pairs, [sources], [targets]
            ),
        )
    return inputs, None


def _run_kernel(query: Pattern, path: str, build: Callable) -> MatchResult:
    """The kernel plus its accounting.  ``path`` names the id space the
    rows are in (``ids`` | ``keys``); ``build()`` returns ``(inputs,
    decode)`` and runs inside the ``matchjoin`` span, so merging and
    BMatchJoin's row filter are attributed to it.  One registry write
    per call."""
    with trace.span("matchjoin", edges=query.num_edges, path=path) as mj_span:
        inputs, decode = build()
        result, sweeps = sweep_join(query, inputs, decode)
        if mj_span is not None:
            mj_span.set(sweeps=sweeps)
    reg = get_registry()
    reg.counter("repro_matchjoin_total", path=path).inc()
    reg.counter("repro_matchjoin_sweeps_total", path=path).inc(sweeps)
    return result


def join_pair_sets(
    query: Pattern, initial: Dict[PEdge, Set[NodePair]]
) -> MatchResult:
    """Run the kernel in node-key space over ready-merged pair sets --
    the hybrid kernel's adapter (covered edges merged from extensions,
    uncovered ones scanned from ``G``)."""
    return _run_kernel(query, "keys", lambda: _key_inputs(initial))


# ----------------------------------------------------------------------
# Naive fixpoint: the literal Fig. 2 while-loop (MatchJoin_nopt)
# ----------------------------------------------------------------------
def _fixpoint_naive(
    query: Pattern, sets: Dict[PEdge, Set[NodePair]]
) -> MatchResult:
    edges = query.edges()
    current: Dict[PEdge, Set[NodePair]] = {e: set(sets[e]) for e in edges}
    if any(not current[e] for e in edges):
        return MatchResult.empty()
    sweeps = get_registry().counter("repro_matchjoin_sweeps_total", path="naive")
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        # Rebuild the source index from scratch every pass: no worklist,
        # no rank order -- each Se is revisited until a quiet pass.
        sources: Dict[PEdge, Set[Node]] = {
            e: {pair[0] for pair in current[e]} for e in edges
        }
        for edge in edges:
            u, u_prime = edge
            out_u = query.out_edges(u)
            out_u_prime = query.out_edges(u_prime)
            doomed: List[NodePair] = []
            for v, w in current[edge]:
                ok = all(v in sources[e1] for e1 in out_u) and all(
                    w in sources[e2] for e2 in out_u_prime
                )
                if not ok:
                    doomed.append((v, w))
            if doomed:
                current[edge] -= set(doomed)
                if not current[edge]:
                    sweeps.inc(passes)
                    return MatchResult.empty()  # Fig. 2 line 11
                changed = True
    sweeps.inc(passes)
    node_matches: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    for (u, u_prime), pairs in current.items():
        node_matches[u].update(pair[0] for pair in pairs)
        node_matches[u_prime].update(pair[1] for pair in pairs)
    return MatchResult(node_matches, current)


def _extensions_of(views: Union[Extensions, ViewSet]) -> Extensions:
    if isinstance(views, ViewSet):
        return views.extensions()
    return views


def join_views(
    query: Pattern,
    containment: Containment,
    views: Union[Extensions, ViewSet],
    optimized: bool,
    bound_of: Optional[Callable] = None,
) -> MatchResult:
    """What MatchJoin and BMatchJoin share: pick the fixpoint and the id
    space, merge the λ-images (Fig. 2 lines 1-4) into its input, run
    it.  ``bound_of`` is BMatchJoin's distance filter (see
    :func:`merge_initial_sets`)."""
    extensions = _extensions_of(views)
    _check_inputs(query, containment, extensions)
    if not optimized:
        get_registry().counter("repro_matchjoin_total", path="naive").inc()
        return _fixpoint_naive(
            query, merge_initial_sets(query, containment, extensions, bound_of)
        )
    if shared_snapshot_token(query, containment, extensions) is None:
        return _run_kernel(
            query,
            "keys",
            lambda: _key_inputs(
                merge_initial_sets(query, containment, extensions, bound_of)
            ),
        )
    return _run_kernel(
        query, "ids", lambda: _id_inputs(query, containment, extensions, bound_of)
    )


def match_join(
    query: Pattern,
    containment: Containment,
    extensions: Union[Extensions, ViewSet],
    optimized: bool = True,
) -> MatchResult:
    """Evaluate ``Qs`` from view extensions only (algorithm MatchJoin).

    Parameters
    ----------
    query:
        The pattern query ``Qs``.
    containment:
        A holding :class:`Containment` for ``Qs`` against the views
        whose extensions are supplied (its λ guides the merge).
    extensions:
        ``{view name: MaterializedView}`` or a materialized
        :class:`ViewSet`.  The data graph itself is never consulted.
    optimized:
        Use the rank-ordered kernel (default) or the literal Fig. 2
        loop (``MatchJoin_nopt``).

    Returns the unique maximum result ``{(e, Se)}``; empty when ``G``
    does not match ``Qs``.  Node match sets in the returned result are
    the nodes participating in edge matches (the paper's ``Qs(G)`` is
    the edge-level object).

    When every referenced extension was materialized against the same
    snapshot, the kernel sweeps the extensions' stored id rows in the
    snapshot's integer-id space; otherwise it runs over the node-key
    pair sets.  The result is identical either way.
    """
    return join_views(query, containment, extensions, optimized)
