"""Serialization for data graphs and patterns.

Three formats are provided:

* a JSON document for :class:`~repro.graph.digraph.DataGraph` (labels,
  attributes and edges) -- lossless round trips;
* a JSON document for (bounded) patterns, including search conditions;
* a SNAP-style whitespace-separated edge list reader
  (:func:`read_snap_edges`), so the original Amazon/YouTube downloads
  can be loaded if available (comment lines starting with ``#`` are
  skipped); labels/attributes can then be attached separately.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Tuple, Union

from repro.graph.conditions import (
    Atom,
    AttributeCondition,
    Condition,
    Label,
    TrueCondition,
)
from repro.graph.pattern import ANY, BoundedPattern, Pattern

if TYPE_CHECKING:
    from repro.graph.digraph import DataGraph

PathLike = Union[str, "os.PathLike[str]"]


# ----------------------------------------------------------------------
# Node identities <-> JSON
# ----------------------------------------------------------------------
def node_to_json(node: Any) -> Any:
    """Encode a node id; tuples (arbitrarily nested) become lists."""
    if isinstance(node, tuple):
        return [node_to_json(part) for part in node]
    return node


def node_from_json(node: Any) -> Any:
    """Restore a node id written by :func:`node_to_json`: lists become
    tuples again, recursively (generated queries use nested-tuple ids)."""
    if isinstance(node, list):
        return tuple(node_from_json(part) for part in node)
    return node


#: What JSON carries unchanged: an attribute value, or a node key's parts.
JSON_SCALARS = (str, int, float, bool, type(None))


def check_attrs(node: Any, attrs: Dict[str, Any], error: type = ValueError) -> None:
    """Raise ``error`` naming ``node`` and its first attribute whose value
    JSON cannot carry unchanged (a tuple would come back a list)."""
    for name, value in attrs.items():
        if type(value) not in JSON_SCALARS:
            raise error(f"node {node!r}: attribute {name!r} = {value!r} "
                        "is not str, int, float, bool or None")


# ----------------------------------------------------------------------
# Conditions <-> JSON
# ----------------------------------------------------------------------
def condition_to_json(cond: Condition) -> Dict[str, Any]:
    if isinstance(cond, TrueCondition):
        return {"kind": "true"}
    if isinstance(cond, Label):
        return {"kind": "label", "name": cond.name}
    if isinstance(cond, AttributeCondition):
        return {
            "kind": "attrs",
            "label": cond.label,
            "atoms": [[a.attr, a.op, a.value] for a in cond.atoms],
        }
    raise TypeError(f"cannot serialize condition {cond!r}")


def condition_from_json(doc: Dict[str, Any]) -> Condition:
    kind = doc.get("kind")
    if kind == "true":
        return TrueCondition()
    if kind == "label":
        return Label(doc["name"])
    if kind == "attrs":
        atoms = tuple(Atom(attr, op, value) for attr, op, value in doc["atoms"])
        return AttributeCondition(atoms, label=doc.get("label", ""))
    raise ValueError(f"unknown condition kind {kind!r}")


# ----------------------------------------------------------------------
# DataGraph <-> JSON
# ----------------------------------------------------------------------
def graph_to_json(graph: DataGraph) -> Dict[str, Any]:
    """``graph`` as a JSON doc, or :func:`check_attrs`'s ``ValueError``."""
    nodes = []
    for node in graph.nodes():
        check_attrs(node, graph.attrs(node))
        nodes.append(
            {
                "id": node,
                "labels": sorted(graph.labels(node)),
                "attrs": graph.attrs(node),
            }
        )
    return {"nodes": nodes, "edges": [list(edge) for edge in graph.edges()]}


def graph_from_json(doc: Dict[str, Any]) -> DataGraph:
    """The graph :func:`graph_to_json` wrote; an attribute value that it
    refuses is refused here too, with :func:`check_attrs`'s message."""
    from repro.graph.digraph import DataGraph

    graph = DataGraph()
    for node_doc in doc["nodes"]:
        node, attrs = node_from_json(node_doc["id"]), node_doc.get("attrs")
        if attrs:
            check_attrs(node, attrs)
        graph.add_node(node, labels=node_doc.get("labels", ()), attrs=attrs)
    for source, target in doc["edges"]:
        graph.add_edge(node_from_json(source), node_from_json(target))
    return graph


def write_graph(graph: DataGraph, path: PathLike) -> None:
    doc = graph_to_json(graph)  # refused before the file is opened
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def read_graph(path: PathLike) -> DataGraph:
    with open(path, encoding="utf-8") as handle:
        return graph_from_json(json.load(handle))


# ----------------------------------------------------------------------
# Patterns <-> JSON
# ----------------------------------------------------------------------
def pattern_to_json(pattern: Pattern) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "bounded": isinstance(pattern, BoundedPattern),
        "nodes": [
            {"id": node, "condition": condition_to_json(pattern.condition(node))}
            for node in pattern.nodes()
        ],
    }
    if isinstance(pattern, BoundedPattern):
        doc["edges"] = [
            [source, target, "*" if pattern.bound((source, target)) is ANY
             else pattern.bound((source, target))]
            for source, target in pattern.edges()
        ]
    else:
        doc["edges"] = [list(edge) for edge in pattern.edges()]
    return doc


def pattern_from_json(doc: Dict[str, Any]) -> Pattern:
    bounded = doc.get("bounded", False)
    pattern: Pattern = BoundedPattern() if bounded else Pattern()
    for node_doc in doc["nodes"]:
        pattern.add_node(
            node_from_json(node_doc["id"]),
            condition_from_json(node_doc["condition"]),
        )
    for edge_doc in doc["edges"]:
        if bounded:
            source, target, bound = edge_doc
            pattern.add_edge(
                node_from_json(source),
                node_from_json(target),
                ANY if bound == "*" else bound,
            )  # type: ignore[call-arg]
        else:
            source, target = edge_doc
            pattern.add_edge(node_from_json(source), node_from_json(target))
    return pattern


def write_pattern(pattern: Pattern, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pattern_to_json(pattern), handle)


def read_pattern(path: PathLike) -> Pattern:
    with open(path, encoding="utf-8") as handle:
        return pattern_from_json(json.load(handle))


# ----------------------------------------------------------------------
# SNAP edge lists
# ----------------------------------------------------------------------
def read_snap_edges(
    path: PathLike, limit: int = 0, max_edges: int = 0
) -> Iterator[Tuple[str, str]]:
    """Stream a SNAP whitespace-separated edge list (``# comments``
    skipped), one ``(source, target)`` pair at a time.

    The file is never held in memory, so multi-GB downloads feed the
    out-of-core ingest path (:func:`repro.graph.ingest.ingest_snapshot`)
    directly.  ``limit`` > 0 silently truncates after that many edges
    (loading a prefix of the 1.78M-edge Amazon file on small machines);
    ``max_edges`` > 0 instead *rejects* longer inputs with a
    ``ValueError`` -- the guard for callers that would buffer what they
    read.
    """
    count = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                continue
            count += 1
            if max_edges and count > max_edges:
                raise ValueError(
                    f"{path}: edge list exceeds max_edges={max_edges}; "
                    "raise the cap, pass limit= to truncate, or stream it "
                    "through `repro ingest` for out-of-core loading"
                )
            yield (parts[0], parts[1])
            if limit and count >= limit:
                return


def graph_from_edges(
    edges: Iterable[Tuple[str, str]], labeler=None, max_edges: int = 0
) -> DataGraph:
    """Build a :class:`DataGraph` from an edge iterable.

    Fully streaming: edges are consumed one at a time and never
    buffered, so a generator (e.g. :func:`read_snap_edges`) flows
    straight into the graph.  ``labeler(node_id) -> labels`` optionally
    assigns labels; by default nodes get no labels (attach them later
    via ``add_node``).  ``max_edges`` > 0 rejects longer inputs with a
    ``ValueError`` -- an in-memory ``DataGraph`` is the wrong tool past
    a few million edges (use ``repro ingest`` instead).
    """
    from repro.graph.digraph import DataGraph

    graph = DataGraph()
    count = 0
    for source, target in edges:
        count += 1
        if max_edges and count > max_edges:
            raise ValueError(
                f"edge stream exceeds max_edges={max_edges}; an in-memory "
                "DataGraph cannot hold it -- use `repro ingest` / "
                "repro.graph.ingest.ingest_snapshot for out-of-core loading"
            )
        if source not in graph:
            graph.add_node(source, labels=labeler(source) if labeler else ())
        if target not in graph:
            graph.add_node(target, labels=labeler(target) if labeler else ())
        graph.add_edge(source, target)
    return graph
