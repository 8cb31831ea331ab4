"""Bounded pattern matching using views (Section VI).

Everything from the simulation setting carries over with the same or
comparable complexity (Theorems 8-10): ``Bcontain`` / ``Bminimal`` /
``Bminimum`` for containment analysis over weighted pattern graphs, and
``BMatchJoin`` for evaluation with the distance index ``I(V)``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "bounded_contains": "repro.core.bounded.bcontainment",
    "bounded_match_join": "repro.core.bounded.bmatchjoin",
    "bounded_minimal_views": "repro.core.bounded.bminimal",
    "bounded_minimum_views": "repro.core.bounded.bminimum",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
