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
  :func:`repro.core.rewriting.hybrid_join` (Section VIII's partial
  rewriting, a library function the engine does not plan) are adapters
  that build rows and call it, always in the integer id space of the
  one snapshot every λ-image's extension was materialized on --
  extensions of two snapshots are refused (:func:`_check_inputs`), as
  Theorem 1 holds over the extensions of one graph only;
* the **naive** loop (``optimized=False``) is the literal Fig. 2
  while-loop: scan all edges until a full pass makes no change.  It
  exists so Exp-2 (Fig. 8(f)) can measure the optimization, exactly
  like the paper's ``MatchJoin_nopt``, and as the tests' reference.

Total cost of the kernel is ``O(|Qs||V(G)| + |V(G)|^2)``
(Theorem 1(2)).

The kernel's answer stays unpackaged until someone reads it: the
survivors are its rows and final candidate sets, and the first read of
any node or edge set runs the packaging pass -- once, for the whole
answer.  ``bool``, ``len``, ``in`` and delivering the answer package
nothing, so the reader pays for the node-key sets, not the engine.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter, deque
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
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
from repro.simulation.result import LazyMap, MatchResult
from repro.views.flatpack import group_by_target
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
#: targets, a packaging thunk, and the rows' by-target index thunks.
#: The packaging thunk exists when the rows are stored match sets
#: adopted unfiltered; it returns ``(node-key pair set, [source node
#: sets], [target node sets])`` so the edge packages wholesale.  The
#: index thunks run parallel to the rows, each returning its row pair's
#: ``{target: [sources]}``: a payload's lazily stored one, or one
#: grouped per call for rows a bound filtered or a graph scan produced.
EdgeRows = Tuple[
    List[Tuple[Sequence, Sequence]],
    frozenset,
    frozenset,
    Optional[Callable],
    List[Callable[[], Dict]],
]


def _check_inputs(
    query: Pattern, containment: Containment, extensions: Extensions
) -> Optional[int]:
    """Shared precondition checks for every MatchJoin entry point, in
    one pass over λ; returns the snapshot token every referenced
    extension carries (``None`` when λ references none).

    Raises ``ValueError`` naming the views when they come from two
    snapshots: Theorem 1 equates MatchJoin with ``Qs(G)`` over the
    extensions of one graph, and ids of two snapshots must never mix."""
    if not containment.holds:
        raise NotContainedError(containment.uncovered)
    if query.isolated_nodes():
        raise UnsupportedPatternError(
            "pattern has isolated nodes; view extensions store edges, so "
            "evaluate such patterns directly with match() / bounded_match()"
        )
    token = None
    for edge in query.edges():
        for view_name, _ in containment.mapping.get(edge, ()):
            if view_name not in extensions:
                raise NotMaterializedError(
                    f"extension for view {view_name!r} is required by λ "
                    "but was not provided"
                )
            found = extensions[view_name].compact.token
            if token is None:
                token = found
            elif found != token:
                raise _mixed_snapshots(containment, extensions)
    return token


def _mixed_snapshots(containment: Containment, extensions: Extensions) -> ValueError:
    by_token: Dict[int, List[str]] = {}
    for name in sorted({ref[0] for refs in containment.mapping.values() for ref in refs}):
        by_token.setdefault(extensions[name].compact.token, []).append(name)
    groups = "; ".join(f"{names} on snapshot {token}" for token, names in by_token.items())
    return ValueError(
        f"the views come from {len(by_token)} snapshots ({groups}); "
        "materialize them on one graph's snapshot"
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
# The kernel: rank-ordered row reads, delta counters for repeat visits
# ----------------------------------------------------------------------
#: What scanning one row costs, in probe entries (one index lookup, or
#: one source read off the index).  A probe of ``live`` targets reads
#: ``~live * (1 + rows / targets)`` entries, a scan reads every row;
#: the cheaper estimate wins.  Measured with the choice forced each way
#: on 12,000 rows of fan-in 1 / 4 / 40 at 1-100 % of the targets live:
#: the two cost the same at ~1.3 estimated entries per row on fan-in 1
#: and past 1.6 on fan-in 4 and 40 (table in CHANGES.md, under
#: ``SCAN_ROW_COST``).
SCAN_ROW_COST = 1.5


def probes(live: int, targets: int, rows: int) -> bool:
    """Whether a visit reads an edge's rows by probing its by-target
    index at the ``live`` valid targets rather than scanning all
    ``rows`` (``targets``: the distinct ids they point to)."""
    return live * (rows + targets) < SCAN_ROW_COST * rows * targets


def sweep_join(
    query: Pattern,
    inputs: Dict[PEdge, EdgeRows],
    decode: Callable,
) -> Tuple[MatchResult, Tuple[int, int, int]]:
    """The candidate-level MatchJoin fixpoint over per-edge rows.

    A pair ``(v, w)`` of edge ``e = (u, u')`` survives Fig. 2 iff ``v``
    stays a valid candidate of ``u`` and ``w`` of ``u'``, where validity
    is the greatest relation in which every candidate has, for each
    out-edge of its pattern node, a row whose target is still valid.
    ``inputs`` maps every query edge to its :data:`EdgeRows` in one
    snapshot's id space, and ``decode`` maps an id to its node key.
    Returns the result and ``(visits that read an edge's rows, how many
    of them probed, rows they read)``.  The result is unpackaged: its
    survivors become node-key sets on the first read of any set
    (:func:`_on_first_read`).

    Edges are visited in ascending rank of their target, so on a DAG
    query every ``valid(u')`` is final before an edge into ``u'`` is
    read (Lemma 2: one read per edge).  A read recomputes the live
    sources either by scanning the raw rows or, when :func:`probes`
    says so, by probing the edge's by-target index at the live targets
    only -- everything around it is a batch set-op over the key sets.
    An edge that comes back after its read (cyclic queries only) is
    read once more to count live witnesses per source; from then on a
    shrink of ``valid(u')`` by ``R`` costs ``O(Σ_{w∈R} indeg(w))``
    decrements off the index, so no removal chain, however long,
    re-reads the rows.
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
                return MatchResult.empty(), (0, 0, 0)
        else:
            # Sink nodes are only ever targets.
            ins = [inputs[e][2] for e in in_edges[u]]
            pool = ins[0] if len(ins) == 1 else ins[0].union(*ins[1:])
        valid[u] = pool

    # Pools start out as the callers' (stored, shared) key sets; a read
    # replaces a node's set by a new set of its survivors, so the first
    # shrink of a shared pool costs the survivors, and delta mode
    # shrinks the set its own read made in place.
    swept: Set[PEdge] = set()
    # Delta mode: edge -> live witnesses by source, and the targets
    # withdrawn since the edge's last visit.
    delta: Dict[PEdge, Dict] = {}
    withdrawn: Dict[PEdge, Set] = {}
    indexes: Dict[PEdge, List[Dict]] = {}

    def index_of(edge: PEdge) -> List[Dict]:
        found = indexes.get(edge)
        if found is None:
            found = indexes[edge] = [part() for part in inputs[edge][4]]
        return found

    sweeps = probed = read = 0
    rank = edge_ranks(query)
    queue = deque(sorted(edges, key=rank.__getitem__))
    queued: Set[PEdge] = set(edges)
    while queue:
        edge = queue.popleft()
        queued.discard(edge)
        u, u_prime = edge
        candidates = valid[u]
        if edge in delta:
            witnesses = delta[edge]
            gone = withdrawn.pop(edge, ())
            dead = set()
            for by_target in index_of(edge):
                for v in chain.from_iterable(map(by_target.get, gone, repeat(()))):
                    if v in witnesses:
                        witnesses[v] -= 1
                        if not witnesses[v]:
                            dead.add(v)
            dead &= candidates
            if not dead:
                continue
            candidates -= dead
            if not candidates:
                return MatchResult.empty(), (sweeps, probed, read)
        else:
            live = valid[u_prime]
            rows, _, targets, _, _ = inputs[edge]
            first = edge not in swept
            if first:
                if live >= targets:
                    continue  # every stored target is live: no source can die
                swept.add(edge)
            num_rows = sum(len(src_row) for src_row, _ in rows)
            if probes(len(live), len(targets), num_rows):
                hits = [
                    sources
                    for by_target in index_of(edge)
                    for sources in map(by_target.get, live)
                    if sources
                ]
                alive = chain.from_iterable(hits)
                probed += 1
                read += sum(map(len, hits))
            else:
                alive = (
                    v
                    for src_row, tgt_row in rows
                    for v, w in zip(src_row, tgt_row)
                    if w in live
                )
                read += num_rows
            sweeps += 1
            if first:
                kept = set(alive)
                kept &= candidates
            else:
                delta[edge] = witnesses = Counter(
                    filter(candidates.__contains__, alive)
                )
                valid[u] = kept = set(witnesses)
            if len(kept) == len(candidates):
                continue
            if not kept:
                return MatchResult.empty(), (sweeps, probed, read)
            valid[u] = kept
            dead = None  # listed only if an in-edge counts witnesses
        for affected in in_edges[u]:
            if affected in delta:
                if dead is None:
                    dead = candidates - kept
                withdrawn.setdefault(affected, set()).update(dead)
            if affected not in queued:
                queue.append(affected)
                queued.add(affected)
    package = partial(_package, query, inputs, valid, decode)
    return _on_first_read(query, package), (sweeps, probed, read)


class _Unpackaged(LazyMap):
    """One map of an unpackaged answer: ``build()`` returns the whole
    map, and the first read of any key fills it at once, so later reads
    are plain dict hits."""

    __slots__ = ()

    def __missing__(self, key):
        if key not in self:
            raise KeyError(key)
        lazy = self._lazy
        if lazy is not None:  # else another thread filled it
            for known, value in lazy[0]().items():
                dict.setdefault(self, known, value)
            self._lazy, self._keys = None, ()
        return dict.get(self, key)


def _on_first_read(query: Pattern, package: Callable) -> MatchResult:
    """The answer as two maps over one ``package()`` run: the first read
    of any set packages the whole answer, once, and each map is filled
    from its output on its own first read.  ``bool``, ``len`` and ``in``
    read the pattern alone; a pickle is the plain result."""
    slot = [package]  # the packager until the first read, then its output
    lock = threading.Lock()

    def side(index: int) -> dict:
        with lock:
            if callable(slot[0]):
                with trace.span("package", edges=query.num_edges):
                    slot[0] = slot[0]()
        return slot[0][index]

    return MatchResult(
        _Unpackaged(tuple(query.nodes()), partial(side, 0)),
        _Unpackaged(tuple(query.edges()), partial(side, 1)),
    )


def _package(
    query: Pattern,
    inputs: Dict[PEdge, EdgeRows],
    valid: Dict[PNode, Set],
    decode: Callable,
) -> Tuple[Dict[PNode, Set[Node]], Dict[PEdge, Set[NodePair]]]:
    """The fixpoint's survivors as node-key sets: untouched edges
    wholesale, the rest in one filtering and decoding pass."""
    edges = query.edges()
    node_matches: Dict[PNode, Set[Node]] = {u: set() for u in query.nodes()}
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    for edge in edges:
        u, u_prime = edge
        rows, sources, targets, whole, _ = inputs[edge]
        valid_src = valid[u]
        valid_tgt = valid[u_prime]
        if whole is not None and sources <= valid_src and targets <= valid_tgt:
            # No endpoint candidate of this edge was refined away: every
            # stored pair survives -- no per-pair filter or decode.
            pairs, source_nodes, target_nodes = whole()
            node_matches[u].update(*source_nodes)
            node_matches[u_prime].update(*target_nodes)
        else:
            pairs = {
                (decode(v), decode(w))
                for src_row, tgt_row in rows
                for v, w in zip(src_row, tgt_row)
                if v in valid_src and w in valid_tgt
            }
            node_matches[u].update(map(itemgetter(0), pairs))
            node_matches[u_prime].update(map(itemgetter(1), pairs))
        edge_matches[edge] = pairs
    return node_matches, edge_matches


# ----------------------------------------------------------------------
# The adapter: rows from the extensions of one snapshot
# ----------------------------------------------------------------------
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
        rows, sources, targets, index = [], [], [], []
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
                index.append(partial(payload.by_target.__getitem__, view_edge))
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
                index.append(partial(group_by_target, src_row, tgt_row))
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
            index,
        )
    return inputs, decode


def _run_kernel(query: Pattern, path: str, build: Callable) -> MatchResult:
    """The kernel plus its accounting, under ``path="ids"`` (the naive
    loop counts as ``naive``).  ``build()`` returns ``(inputs, decode)``
    and runs inside the ``matchjoin`` span, so merging and BMatchJoin's
    row filter are attributed to it.  The span carries
    ``sweeps`` (row visits: visits that read an edge's rows, by scan or
    by probe), ``probes`` (those that probed) and ``rows`` (rows they
    read); ``repro_matchjoin_sweeps_total`` counts the row visits.  One
    registry write per call."""
    with trace.span("matchjoin", edges=query.num_edges, path=path) as mj_span:
        inputs, decode = build()
        result, (sweeps, probed, read) = sweep_join(query, inputs, decode)
        if mj_span is not None:
            mj_span.set(sweeps=sweeps, probes=probed, rows=read)
    reg = get_registry()
    reg.counter("repro_matchjoin_total", path=path).inc()
    reg.counter("repro_matchjoin_sweeps_total", path=path).inc(sweeps)
    return result


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
    """What MatchJoin and BMatchJoin share: pick the fixpoint, merge the
    λ-images (Fig. 2 lines 1-4) into its input, run it.  ``bound_of``
    is BMatchJoin's distance filter (see :func:`merge_initial_sets`)."""
    extensions = _extensions_of(views)
    if not optimized:
        initial = merge_initial_sets(query, containment, extensions, bound_of)
        get_registry().counter("repro_matchjoin_total", path="naive").inc()
        return _fixpoint_naive(query, initial)
    _check_inputs(query, containment, extensions)
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

    The kernel sweeps the extensions' stored id rows in the integer id
    space of the snapshot they were materialized on; extensions of two
    snapshots raise ``ValueError`` naming the views.
    """
    return join_views(query, containment, extensions, optimized)
