"""Matching engines: graph simulation, bounded simulation and revisions.

* :func:`~repro.simulation.simulation.match` -- the ``Match`` baseline:
  evaluate a pattern on a data graph via graph simulation ([16], [21]).
* :func:`~repro.simulation.bounded.bounded_match` -- the ``BMatch``
  baseline: bounded simulation with edge-to-path semantics ([16]).
* :func:`~repro.simulation.simulation.dual_match` /
  :mod:`~repro.simulation.strong` -- dual and strong simulation ([28]),
  the Section VIII extensions, on the dict fixpoint of
  :mod:`~repro.simulation.witness` with its parent counters.
* :mod:`~repro.simulation.distance` -- BFS/Dijkstra distance oracles
  shared by the bounded engines and the view distance index.

All engines return a :class:`~repro.simulation.result.MatchResult`
holding the unique maximum match: node match sets plus the per-edge
match sets ``{(e, Se)}`` that constitute ``Qs(G)`` in the paper.
"""

from repro import _lazy_exports

_EXPORTS = {
    "MatchResult": "repro.simulation.result",
    "bounded_match": "repro.simulation.bounded",
    "dual_match": "repro.simulation.simulation",
    "match": "repro.simulation.simulation",
    "strong_match": "repro.simulation.strong",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
