"""Dataset generators: synthetic graphs and real-dataset stand-ins.

The paper evaluates on three SNAP/ArnetMiner datasets (Amazon, Citation,
YouTube) and on random synthetic graphs.  The real downloads are not
redistributable nor available offline, so this package provides
*schema-faithful generators* (see DESIGN.md "Substitutions"): same node
attribute schemas, skewed label distributions, power-law-ish degrees and
within-category clustering, at laptop scale by default and any scale on
request.  Users with the original files can load them via
:func:`repro.graph.io.read_snap_edges` instead.

* :func:`~repro.datasets.synthetic.random_graph`,
  :func:`~repro.datasets.synthetic.community_graph` and
  :func:`~repro.datasets.synthetic.densification_graph` -- the paper's
  synthetic generator (``|V|``, ``|E| = 2|V|`` or ``|E| = |V|^alpha``).
* :func:`~repro.datasets.amazon.amazon_graph`,
  :func:`~repro.datasets.citation.citation_graph`,
  :func:`~repro.datasets.youtube.youtube_graph`.
* :mod:`~repro.datasets.patterns` -- random (bounded) pattern and view
  generators, plus ``query_from_views`` which builds queries *guaranteed*
  to be contained in a view set.
* :mod:`~repro.datasets.youtube_views` -- the twelve predicate views of
  Fig. 7.
"""

from repro import _lazy_exports

# Eager: the function shares its name with its submodule, and importing
# the submodule first would otherwise leave the module in its place.
from repro.datasets.youtube_views import youtube_views

_EXPORTS = {
    "amazon_graph": "repro.datasets.amazon",
    "amazon_views": "repro.datasets.amazon",
    "citation_graph": "repro.datasets.citation",
    "citation_views": "repro.datasets.citation",
    "community_graph": "repro.datasets.synthetic",
    "densification_graph": "repro.datasets.synthetic",
    "generate_views": "repro.datasets.patterns",
    "query_from_views": "repro.datasets.patterns",
    "random_bounded_pattern": "repro.datasets.patterns",
    "random_graph": "repro.datasets.synthetic",
    "random_query": "repro.datasets.patterns",
    "youtube_graph": "repro.datasets.youtube",
}

__all__ = sorted([*_EXPORTS, "youtube_views"])
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
