"""Serialization for view definitions.

A views JSON file holds definitions only.  A cached ``V(G)`` lives
across processes as a snapshot directory: each view's id rows beside
the graph they index (``view-NNN.seg`` plus the ``view-NNN.json`` that
:func:`stored_view_to_json` writes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.graph.io import (
    node_from_json as _node_from_json,
    node_to_json as _node_to_json,
    pattern_from_json,
    pattern_to_json,
)
from repro.views.flatpack import _attach_extension
from repro.views.storage import ViewSet
from repro.views.view import MaterializedView, ViewDefinition


def definition_to_json(definition: ViewDefinition) -> Dict[str, Any]:
    """Encode a view definition (name + defining pattern) as JSON."""
    return {
        "name": definition.name,
        "pattern": pattern_to_json(definition.pattern),
    }


def definition_from_json(doc: Dict[str, Any]) -> ViewDefinition:
    """Rebuild a :class:`ViewDefinition` written by
    :func:`definition_to_json` (bounded patterns included)."""
    return ViewDefinition(doc["name"], pattern_from_json(doc["pattern"]))


def stored_view_to_json(view: MaterializedView) -> Dict[str, Any]:
    """What a snapshot directory saves beside a view's id rows
    (``view-NNN.json``): its definition, row order and provenance."""
    payload = view.compact
    return {
        "definition": definition_to_json(view.definition),
        "edge_order": [[_node_to_json(v), _node_to_json(w)] for v, w in payload.edge_order],
        "token": payload.token,
        "version": payload.version,
        "bounded": payload.distances is not None,
    }


def stored_view_from_json(doc: Dict[str, Any], store, nodes) -> MaterializedView:
    """The view :func:`stored_view_to_json` described, its id rows in
    ``store`` decoding through ``nodes`` (the loaded graph's table)."""
    edges = [(_node_from_json(v), _node_from_json(w)) for v, w in doc["edge_order"]]
    flat = _attach_extension(store, nodes, edges, doc["token"], doc["version"], doc["bounded"])
    return MaterializedView(definition_from_json(doc["definition"]), flat)


def write_viewset(views: ViewSet, path: Union[str, Path]) -> None:
    """Persist the view definitions (a materialized extension persists
    as a snapshot directory: ``repro snapshot save --views``)."""
    doc = {"definitions": [definition_to_json(d) for d in views]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def read_viewset(path: Union[str, Path]) -> ViewSet:
    """Load the definitions :func:`write_viewset` wrote.  A file that
    carries node-key extensions is refused (``ValueError``)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("extensions"):
        raise ValueError(
            f"{path}: a views file holds definitions only, but this one "
            "carries materialized extensions; persist materialized views "
            "with `repro snapshot save --views`"
        )
    return ViewSet(definition_from_json(d) for d in doc["definitions"])
