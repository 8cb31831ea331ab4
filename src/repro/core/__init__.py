"""The paper's primary contribution: answering pattern queries using views.

* :mod:`~repro.core.view_match` / :mod:`~repro.core.bounded.bview_match`
  -- view matches ``M^Qs_V`` and ``M^Qb_V`` (Propositions 7 and 11).
* :mod:`~repro.core.containment` -- ``contain`` and the λ mapping
  (Theorem 3); :mod:`~repro.core.minimal` (Theorem 5, Fig. 5);
  :mod:`~repro.core.minimum` (Theorem 6, greedy set-cover).
* :mod:`~repro.core.matchjoin` -- MatchJoin (Fig. 2) with the SCC-rank
  bottom-up optimization, and BMatchJoin in
  :mod:`~repro.core.bounded.bmatchjoin`.
* :mod:`~repro.core.answer` -- the end-to-end pipeline.
* :mod:`~repro.core.minimization` and :mod:`~repro.core.rewriting` --
  applications/extensions (Corollary 4, Section VIII future work).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Answer": "repro.core.answer",
    "Containment": "repro.core.containment",
    "answer_with_views": "repro.core.answer",
    "bounded_contains": "repro.core.bounded.bcontainment",
    "bounded_match_join": "repro.core.bounded.bmatchjoin",
    "bounded_minimal_views": "repro.core.bounded.bminimal",
    "bounded_minimum_views": "repro.core.bounded.bminimum",
    "contains": "repro.core.containment",
    "match_join": "repro.core.matchjoin",
    "minimal_views": "repro.core.minimal",
    "minimum_views": "repro.core.minimum",
    "query_contained": "repro.core.containment",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
