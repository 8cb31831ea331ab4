"""The bytes of a ``query`` reply.

A reply line is ``head + fragment + b"}\\n"``.  ``fragment`` is the
encoded ``"result"`` value -- the expensive part (every matched pair is
converted, sorted and serialised) and the same for every reply served
from one answer-cache entry, so :class:`~repro.serve.server.QueryServer`
keeps it on the entry and a cache hit writes it out again without
encoding anything.  ``head`` is the five small per-request fields.

The contract: the line is byte-identical to ``json.dumps(reply,
default=str)`` of the dict ``{"ok", "epoch", "cache_hit", "coalesced",
"elapsed_ms", "result": {"pairs", "node_matches", "edge_matches"}}`` in
that key order with the default separators -- no client can tell a
spliced reply from a freshly dumped one (``tests/test_serve.py`` keeps
the dict encoder as the reference).
"""

from __future__ import annotations

import json

from repro.graph.io import node_to_json
from repro.simulation.result import MatchResult


def result_fragment(result: MatchResult) -> bytes:
    """The encoded ``"result"`` value of a reply carrying ``result``."""
    return json.dumps(
        {
            "pairs": result.result_size,
            "node_matches": {
                str(node): sorted((node_to_json(v) for v in values), key=repr)
                for node, values in result.node_matches.items()
            },
            "edge_matches": {
                f"{edge[0]}->{edge[1]}": sorted(
                    ([node_to_json(u), node_to_json(v)] for u, v in pairs),
                    key=repr,
                )
                for edge, pairs in result.edge_matches.items()
            },
        },
        default=str,
    ).encode()


def query_reply(answer) -> bytes:
    """The reply line for a :class:`~repro.serve.server.ServedAnswer`
    that was asked for with ``wire=True`` (so ``answer.wire`` holds the
    result fragment)."""
    head = json.dumps(
        {
            "ok": True,
            "epoch": answer.epoch,
            "cache_hit": answer.cache_hit,
            "coalesced": answer.coalesced,
            "elapsed_ms": answer.elapsed * 1e3,
        }
    )
    return b"".join(
        (head[:-1].encode(), b', "result": ', answer.wire, b"}\n")
    )
