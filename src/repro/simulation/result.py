"""The result object shared by all matching engines.

The paper defines the result of ``Qs`` in ``G`` as the unique maximum
set ``{(e, Se) | e in Ep}`` derived from the maximum match relation
``So``, with ``Qs(G) = {}`` when ``G`` does not match ``Qs``.  A
:class:`MatchResult` carries both the node-level relation (``So`` as
per-pattern-node match sets) and the per-edge match sets, because the
node sets are what the fixpoint algorithms refine while the edge sets
are what the user (and the views machinery) consumes.

An id-space kernel's answer stays in ids until someone reads it: an
:class:`IdAnswer` holds the kernel's rows and survivors and decodes
each node or edge's set on first access (:class:`LazyMap`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

PNode = Hashable
PEdge = Tuple[PNode, PNode]
Node = Hashable
NodePair = Tuple[Node, Node]


class LazyMap(dict):
    """``{key: value}`` with each value built on first access.

    ``len``, ``in`` and iteration read ``keys`` and build nothing.
    ``build(key)`` makes a value, which is kept (it may be mutated in
    place); ``count(key)``, if given, is its size unbuilt.  ``items()``,
    ``values()``, ``==`` and pickling build everything, and a pickle is
    the plain dict.  With every value built the map drops ``build`` and
    ``count`` and the payload they hold.  Two threads may build one
    value at once: the first stored wins, and no lock is taken.
    """

    __slots__ = ("_keys", "_lazy")

    def __init__(self, keys, build: Callable, count: Optional[Callable] = None):
        self._keys, self._lazy = keys, (build, count) if len(keys) else None

    def __missing__(self, key):
        lazy = self._lazy
        if key not in self._keys:
            raise KeyError(key)
        if lazy is None:  # another thread built the last value
            return dict.get(self, key)
        value = dict.setdefault(self, key, lazy[0](key))
        if dict.__len__(self) == len(self._keys):
            self._lazy = None
        return value

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def get(self, key, default=None):
        return self[key] if key in self._keys else default

    def _built(self) -> dict:
        for key in self._keys:
            self[key]
        return self

    def keys(self):
        return dict.keys(self._built())

    def values(self):
        return dict.values(self._built())

    def items(self):
        return dict.items(self._built())

    def __eq__(self, other):
        return dict(self.items()) == other

    def __ne__(self, other):
        return dict(self.items()) != other

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __reduce__(self):
        return dict, (dict(self.items()),)


class MatchResult:
    """The unique maximum match of a pattern in a data graph.

    Attributes
    ----------
    node_matches:
        ``{u: set of data nodes matching u}`` -- the relation ``So``
        grouped by pattern node.  Empty dict for a failed match.
    edge_matches:
        ``{e: Se}`` -- for plain simulation ``Se`` contains data-graph
        *edges*; for bounded simulation it contains node pairs connected
        by a path within the edge's bound.  (Either may be a
        :class:`LazyMap`: an id-space answer.)
    stats:
        Optional execution telemetry (e.g.
        :class:`repro.engine.plan.ExecutionStats` when the result comes
        from a :class:`~repro.engine.engine.QueryEngine`): strategy,
        wall time, cache provenance.  ``None`` for results built by the
        matching engines directly; never part of equality.
    """

    __slots__ = ("node_matches", "edge_matches", "stats")

    def __init__(
        self,
        node_matches: Dict[PNode, Set[Node]],
        edge_matches: Dict[PEdge, Set[NodePair]],
        stats: object = None,
    ) -> None:
        self.node_matches = node_matches
        self.edge_matches = edge_matches
        self.stats = stats

    @classmethod
    def empty(cls) -> "MatchResult":
        """The failed match, ``Qs(G) = {}``."""
        return cls({}, {})

    def __bool__(self) -> bool:
        """True iff the pattern matched (``Qs E_sim G``)."""
        return bool(self.node_matches)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchResult):
            return NotImplemented
        return (
            self.node_matches == other.node_matches
            and self.edge_matches == other.edge_matches
        )

    def __hash__(self) -> int:  # pragma: no cover - results are not hashed
        raise TypeError("MatchResult is unhashable")

    def matches_of(self, pattern_node: PNode) -> Set[Node]:
        return self.node_matches.get(pattern_node, set())

    def edge_matches_of(self, edge: PEdge) -> Set[NodePair]:
        return self.edge_matches.get(edge, set())

    @property
    def result_size(self) -> int:
        """``|Qs(G)|``: total number of pairs across all match sets."""
        return _total(self.edge_matches)

    def total_node_matches(self) -> int:
        return _total(self.node_matches)

    def as_relation(self) -> Set[Tuple[PNode, Node]]:
        """The match relation ``So`` as a set of (pattern node, node) pairs."""
        return {
            (u, v) for u, nodes in self.node_matches.items() for v in nodes
        }

    def to_table(self) -> List[Tuple[PEdge, List[NodePair]]]:
        """Rows like the paper's Example 2 table, deterministically sorted."""
        rows = []
        for edge in sorted(self.edge_matches, key=repr):
            rows.append((edge, sorted(self.edge_matches[edge], key=repr)))
        return rows

    def pretty(self) -> str:
        """A printable rendition of the Example 2 style table."""
        lines = ["Edge -> Matches"]
        for edge, pairs in self.to_table():
            rendered = ", ".join(f"({a}, {b})" for a, b in pairs)
            lines.append(f"  {edge[0]} -> {edge[1]}: {{{rendered}}}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if not self:
            return "MatchResult(empty)"
        return (
            f"MatchResult(nodes={self.total_node_matches()}, "
            f"pairs={self.result_size})"
        )


def _total(matches) -> int:
    """Summed set sizes; an id answer's unread sets count off their ids."""
    lazy = matches._lazy if isinstance(matches, LazyMap) else None
    if lazy is None or lazy[1] is None:
        return sum(map(len, matches.values()))
    count, built = lazy[1], dict.__contains__
    return sum(
        len(matches[k]) if built(matches, k) else count(k) for k in matches._keys
    )


class IdAnswer:
    """An answer in a snapshot's id space: ``ids[u]`` the ids matching
    pattern node ``u`` and ``rows[e] = (src, tgt)`` the id rows matching
    pattern edge ``e``, read as node keys through ``table[i]``."""

    __slots__ = ("ids", "rows", "table")

    def __init__(self, ids: Dict, rows: Dict, table) -> None:
        self.ids, self.rows, self.table = ids, rows, table

    def result(self) -> MatchResult:
        """The answer as a result that decodes each set on first read."""
        return MatchResult(
            LazyMap(tuple(self.ids), self.node_set, lambda u: len(self.ids[u])),
            LazyMap(tuple(self.rows), self.pair_set, lambda e: len(self.rows[e][0])),
        )

    def node_set(self, u: PNode) -> Set[Node]:
        return set(map(self.table.__getitem__, self.ids[u]))

    def pair_set(self, edge: PEdge) -> Set[NodePair]:
        """A source is decoded once however many rows it heads."""
        src, tgt = self.rows[edge]
        decode = self.table.__getitem__
        heads = set(src)
        names = dict(zip(heads, map(decode, heads)))
        return set(zip(map(names.__getitem__, src), map(decode, tgt)))


def edge_matches_from_nodes(
    pattern_edges: Iterable[PEdge],
    node_matches: Dict[PNode, Set[Node]],
    successors,
) -> Dict[PEdge, Set[NodePair]]:
    """Derive ``{(e, Se)}`` for plain simulation: ``Se`` contains every
    data edge ``(v, v')`` with ``v`` matching ``u`` and ``v'`` matching
    ``u'``.  ``successors(v)`` must return the data successor set.
    """
    edge_matches: Dict[PEdge, Set[NodePair]] = {}
    for edge in pattern_edges:
        source_u, target_u = edge
        pairs: Set[NodePair] = set()
        targets = node_matches[target_u]
        for v in node_matches[source_u]:
            for w in successors(v):
                if w in targets:
                    pairs.add((v, w))
        edge_matches[edge] = pairs
    return edge_matches
