"""A JSON-lines TCP front-end for :class:`~repro.serve.server.QueryServer`.

``repro serve`` speaks newline-delimited JSON over a plain socket --
deliberately stdlib-only, trivially scriptable (``nc``, a five-line
client, a load generator), and shaped like the in-process API:

Request (one JSON object per line)::

    {"op": "query",  "pattern": {<pattern JSON>}, "selection": "minimal"?}
    {"op": "update", "ops": [["insert", u, v], ["delete", u, v], ...]}
    {"op": "stats"}
    {"op": "metrics"}                  # registry snapshot (counters/histograms)
    {"op": "slowlog", "limit": N?}     # slowest request span trees
    {"op": "traces",  "limit": N?}     # most recent request span trees
    {"op": "plans",   "limit": N?}     # recent plan-choice records
    {"op": "ping"}

Response (one JSON object per line)::

    {"ok": true, "epoch": N, ...}                      # op-specific payload
    {"ok": false, "error": "...", "retriable": bool}   # failures

A shed request answers ``retriable: true`` (back off and resend); every
other error answers ``retriable: false``.  Pattern and node encodings
are exactly the :mod:`repro.graph.io` JSON formats, so pattern files
written by ``repro generate`` can be sent verbatim.  A request line may
be up to :data:`MAX_LINE_BYTES` long; a longer one is answered
``request line exceeds N bytes`` and the connection closed.  A ``query``
reply is spliced from the answer cache's encoded fragment
(:mod:`repro.serve.wire`), byte for byte what dumping the dict would
give.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict

from repro.errors import ReproError
from repro.graph.io import node_from_json, pattern_from_json
from repro.serve.server import QueryServer
from repro.serve.wire import query_reply
from repro.views.maintenance import DELETE, INSERT, Delta

log = logging.getLogger(__name__)

#: Longest request line accepted, newline excluded.  asyncio's default
#: stream limit (64 KiB) is one ``update`` of ~2 000 ops; 8 MiB holds
#: batches of ~250 000 ops while still bounding what one connection
#: can make the server buffer (a stream reader holds up to twice its
#: limit).  A longer line is answered with an error and the connection
#: closed -- see :func:`handle_connection`.
MAX_LINE_BYTES = 8 * 1024 * 1024


def _line(response: Dict[str, Any]) -> bytes:
    return json.dumps(response, default=str).encode() + b"\n"


def _error(message: str, retriable: bool = False) -> bytes:
    return _line({"ok": False, "error": message, "retriable": retriable})


def _parse_delta(ops: Any) -> Delta:
    delta = Delta()
    for entry in ops:
        op, source, target = entry
        if op == "+":
            op = INSERT
        elif op == "-":
            op = DELETE
        if op == INSERT:
            delta.insert(node_from_json(source), node_from_json(target))
        elif op == DELETE:
            delta.delete(node_from_json(source), node_from_json(target))
        else:
            raise ValueError(
                f"unknown update op {op!r}; expected '+', '-', "
                f"{INSERT!r} or {DELETE!r}"
            )
    return delta


async def _dispatch(server: QueryServer, request: Dict[str, Any]) -> bytes:
    """Run one request; the complete reply line."""
    op = request.get("op")
    if op == "query":
        pattern = pattern_from_json(request["pattern"])
        answer = await server.query(
            pattern, request.get("selection"), wire=True
        )
        return query_reply(answer)
    if op == "update":
        outcome = await server.update(_parse_delta(request.get("ops", [])))
        return _line({
            "ok": True,
            "epoch": outcome.epoch,
            "applied": outcome.report.applied,
            "skipped": outcome.report.skipped,
            "changed_views": list(outcome.report.changed_views),
            "stale_bounded": list(outcome.report.stale_bounded),
        })
    reply: Dict[str, Any] = {"ok": True, "epoch": server.current_epoch}
    # ``stats`` and ``plans`` read engine state under the engine lock,
    # which maintenance holds for whole batches: off the loop they go.
    if op == "stats":
        reply["stats"] = await asyncio.to_thread(server.stats)
    elif op == "metrics":
        reply["metrics"] = server.engine.registry.snapshot()
    elif op == "slowlog":
        reply["slowlog"] = server.traces.slowest(int(request.get("limit", 10)))
    elif op == "traces":
        reply["traces"] = server.traces.recent(int(request.get("limit", 10)))
    elif op == "plans":
        records = await asyncio.to_thread(
            server.engine.plan_log, int(request.get("limit", 10))
        )
        reply["plans"] = [record.to_dict() for record in records]
    elif op == "ping":
        reply["pong"] = True
    else:
        raise ValueError(f"unknown op {op!r}")
    return _line(reply)


async def _discard_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Read past the end of an over-long line, ``consumed`` bytes of
    which are known to hold no newline, a stream-limit's worth at a
    time.  Closing a socket with unread input resets the connection,
    and the reset can overtake the error reply; once the line is gone
    the close is an orderly FIN."""
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as err:
            consumed = err.consumed
        except asyncio.IncompleteReadError:
            return


async def handle_connection(
    server: QueryServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one client: read JSON lines until EOF, answer each.  A
    line over the stream limit (:data:`MAX_LINE_BYTES` under
    :func:`serve_tcp`) is answered with an error, then the connection
    is closed: what follows it cannot be trusted to be a request."""
    peer = writer.get_extra_info("peername")
    log.debug("connection from %s", peer)
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as eof:
                line = eof.partial  # the last line may lack its newline
                if not line:
                    break
            except asyncio.LimitOverrunError as err:
                log.warning("oversize request line from %s", peer)
                await _discard_line(reader, err.consumed)
                writer.write(
                    _error(f"request line exceeds {MAX_LINE_BYTES} bytes")
                )
                await writer.drain()
                break
            line = line.strip()
            if not line:
                continue
            try:
                response = await _dispatch(server, json.loads(line))
            except ReproError as err:
                response = _error(
                    str(err), bool(getattr(err, "retriable", False))
                )
            except (KeyError, TypeError, ValueError) as err:
                log.warning("bad request from %s: %s", peer, err)
                response = _error(f"bad request: {err}")
            writer.write(response)
            await writer.drain()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass  # client vanished mid-request; nothing to answer
    finally:
        # close() without wait_closed(): awaiting here keeps the
        # handler task alive into server shutdown, where its
        # cancellation is logged as a spurious error by asyncio.
        writer.close()


async def serve_tcp(
    server: QueryServer,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Open the TCP front door (``port=0`` picks an ephemeral port;
    read the bound address off ``.sockets[0].getsockname()``).  Request
    lines may be up to :data:`MAX_LINE_BYTES` long.  The returned
    server is not yet serving forever -- callers own its lifecycle
    (``async with``, or ``serve_forever()``)."""

    async def _handler(reader, writer):
        await handle_connection(server, reader, writer)

    return await asyncio.start_server(
        _handler, host=host, port=port, limit=MAX_LINE_BYTES
    )
