"""repro: answering graph pattern queries using views.

A faithful, production-quality reproduction of

    Wenfei Fan, Xin Wang, Yinghui Wu.
    "Answering Graph Pattern Queries Using Views." ICDE 2014.

The public API re-exported here covers the complete pipeline:

* build :class:`DataGraph` / :class:`Pattern` / :class:`BoundedPattern`;
* evaluate directly (:func:`match`, :func:`bounded_match`);
* define and materialize views (:class:`ViewDefinition`,
  :func:`materialize`, :class:`ViewSet`);
* check pattern containment (:func:`contains`, :func:`minimal_views`,
  :func:`minimum_views` and bounded counterparts);
* answer queries using only views (:func:`match_join`,
  :func:`bounded_match_join`, :func:`answer_with_views`);
* serve query traffic with planning, caching and parallel batch
  execution (:class:`QueryEngine`, :class:`QueryPlan`);
* shard the graph for partial-evaluation matching and parallel view
  materialization (:class:`ShardedGraph`, :func:`make_partition`, and
  the rest of :mod:`repro.shard`).
"""

import sys
from importlib import import_module


def _lazy_exports(package: str, exports: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for a package whose public
    names live in submodules.

    ``exports`` maps each public name to the module that defines it; a
    name is imported on first attribute access and then cached on the
    package, so ``import repro`` (or any subpackage) pays for nothing a
    command never touches.  Unlisted names fall back to submodules of
    ``package`` (``repro.graph.flatbuf`` keeps working after a bare
    ``import repro.graph``).
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as err:
                if err.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__


__version__ = "1.2.0"

_EXPORTS = {
    "ANY": "repro.graph.pattern",
    "AttributeCondition": "repro.graph.conditions",
    "BoundedPattern": "repro.graph.pattern",
    "Condition": "repro.graph.conditions",
    "Containment": "repro.core.containment",
    "DataGraph": "repro.graph.digraph",
    "ExecutionStats": "repro.engine.plan",
    "Label": "repro.graph.conditions",
    "MatchResult": "repro.simulation.result",
    "MaterializedView": "repro.views.view",
    "P": "repro.graph.conditions",
    "Partition": "repro.shard.partitioner",
    "Pattern": "repro.graph.pattern",
    "QueryEngine": "repro.engine.engine",
    "QueryPlan": "repro.engine.plan",
    "ShardedGraph": "repro.shard.sharded",
    "TrueCondition": "repro.graph.conditions",
    "ViewDefinition": "repro.views.view",
    "ViewSet": "repro.views.storage",
    "answer_with_views": "repro.core.answer",
    "bounded_contains": "repro.core.bounded.bcontainment",
    "bounded_match": "repro.simulation.bounded",
    "bounded_match_join": "repro.core.bounded.bmatchjoin",
    "bounded_minimal_views": "repro.core.bounded.bminimal",
    "bounded_minimum_views": "repro.core.bounded.bminimum",
    "contains": "repro.core.containment",
    "dual_match": "repro.simulation.dual",
    "implies": "repro.graph.conditions",
    "make_partition": "repro.shard.partitioner",
    "match": "repro.simulation.simulation",
    "match_join": "repro.core.matchjoin",
    "materialize": "repro.views.view",
    "minimal_views": "repro.core.minimal",
    "minimum_views": "repro.core.minimum",
    "strong_match": "repro.simulation.strong",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
