"""Serialization for view definitions and materialized extensions.

A view cache lives across processes (that is its point), so extensions
must round-trip to disk.  The JSON layout keeps the per-view-edge match
sets and, for bounded views, the distance index ``I(V)``.
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
from repro.views.view import MaterializedView, ViewDefinition, _attach_view


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
    return _attach_view(definition_from_json(doc["definition"]), flat)


def extension_to_json(extension: MaterializedView) -> Dict[str, Any]:
    """Encode an extension ``V(G)`` -- per-view-edge match sets plus,
    for bounded views, the distance index ``I(V)`` (Section VI-A) --
    with deterministic ordering for stable diffs."""
    doc: Dict[str, Any] = {
        "definition": definition_to_json(extension.definition),
        "edge_matches": [
            {
                "edge": [_node_to_json(edge[0]), _node_to_json(edge[1])],
                "pairs": [
                    [_node_to_json(v), _node_to_json(w)] for v, w in sorted(pairs, key=repr)
                ],
            }
            for edge, pairs in extension.edge_matches.items()
        ],
    }
    if extension.distances is not None:
        doc["distances"] = [
            [_node_to_json(v), _node_to_json(w), d]
            for (v, w), d in sorted(extension.distances.items(), key=repr)
        ]
    return doc


def extension_from_json(doc: Dict[str, Any]) -> MaterializedView:
    """Rebuild a :class:`MaterializedView` written by
    :func:`extension_to_json`, restoring tuple node identities."""
    definition = definition_from_json(doc["definition"])
    edge_matches = {}
    for entry in doc["edge_matches"]:
        edge = (_node_from_json(entry["edge"][0]), _node_from_json(entry["edge"][1]))
        edge_matches[edge] = {
            (_node_from_json(v), _node_from_json(w)) for v, w in entry["pairs"]
        }
    distances = None
    if "distances" in doc:
        distances = {
            (_node_from_json(v), _node_from_json(w)): d
            for v, w, d in doc["distances"]
        }
    return MaterializedView(definition, edge_matches, distances=distances)


def write_viewset(views: ViewSet, path: Union[str, Path]) -> None:
    """Persist definitions and any materialized extensions."""
    doc = {
        "definitions": [definition_to_json(d) for d in views],
        "extensions": [
            extension_to_json(views.extension(name))
            for name in views.names()
            if views.is_materialized(name)
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def read_viewset(path: Union[str, Path]) -> ViewSet:
    """Load a :class:`ViewSet` written by :func:`write_viewset`,
    re-installing any persisted extensions (so a cache materialized in
    one process is immediately usable by MatchJoin in another)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    views = ViewSet(definition_from_json(d) for d in doc["definitions"])
    for ext_doc in doc.get("extensions", ()):
        views.set_extension(extension_from_json(ext_doc))
    return views
