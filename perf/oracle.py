"""Expected answers, independent of everything the program builds.

An expected answer is dict-backend ``repro.simulation.match`` /
``bounded_match`` run on a ``DataGraph`` only the harness holds; it never
passes through ``QueryEngine``, views, snapshots or the compact graph.

Answers are a pure function of (graph, query), and computing them costs
more than a whole measured phase, so they are kept on disk under the
checkout, keyed by a digest of the graph's content and the query's fingerprint.
Runs with the same inputs -- every run after the first in a checkout, for
the fixed stand-in datasets -- then pay a file read in place of ``Match``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, Dict, Iterable, Set, Tuple

from repro.graph.digraph import DataGraph
from repro.engine.plan import pattern_key
from repro.graph.pattern import BoundedPattern, Pattern
from repro.simulation import bounded_match, match

EdgeMatches = Dict[Tuple, Set[Tuple]]


def direct_match(query: Pattern, graph):
    """The direct kernel for ``query``: ``Match`` or ``BMatch``."""
    if isinstance(query, BoundedPattern):
        return bounded_match(query, graph)
    return match(query, graph)


def graph_digest(graph: DataGraph) -> str:
    """A digest of the graph's nodes, labels, attributes and edges."""
    digest = hashlib.sha256()
    for node in sorted(graph.nodes(), key=repr):
        record = (
            node,
            sorted(graph.labels(node)),
            sorted(graph.attrs(node).items()),
            sorted(graph.successors(node), key=repr),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class Oracle:
    """Expected ``edge_matches`` per (graph state, query), disk-backed."""

    def __init__(self, cache_dir: Path) -> None:
        self._dir = cache_dir
        self._dir.mkdir(parents=True, exist_ok=True)

    def expected(self, state: str, query: Pattern, graph: DataGraph) -> EdgeMatches:
        """``query``'s answer on ``graph``; ``state`` must identify the
        graph's content (a :func:`graph_digest`, plus any delta applied)."""
        key = hashlib.sha256(f"{state}|{pattern_key(query)!r}".encode()).hexdigest()
        path = self._dir / f"{key}.pkl"
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, EOFError, pickle.UnpicklingError):
            pass
        answer = direct_match(query, graph).edge_matches
        scratch = path.with_suffix(f".{os.getpid()}.tmp")
        with open(scratch, "wb") as handle:
            pickle.dump(answer, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)
        return answer


    def pick(
        self,
        state: str,
        graph: DataGraph,
        candidates: Iterable[Pattern],
        accept: Callable[[int], bool],
    ) -> Tuple[Pattern, EdgeMatches]:
        """The first ``(query, expected answer)`` among ``candidates``
        whose answer size ``accept`` takes, else the first candidate:
        workloads want ops that do real work, not early exits."""
        first = None
        for query in candidates:
            answer = self.expected(state, query, graph)
            first = first or (query, answer)
            if accept(pairs(answer)):
                return query, answer
        return first


def pairs(answer: EdgeMatches) -> int:
    return sum(len(matched) for matched in answer.values())
