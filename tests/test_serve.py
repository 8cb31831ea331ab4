"""The serving layer: epochs, coalescing, admission, shutdown, TCP.

Interleavings are driven deterministically, not by timing: tests wrap
``QueryServer._evaluate`` (the documented hook) with a gate so a reader
can be held *inside* evaluation while updates swap epochs around it.
"""

import asyncio
import json
import logging
import socket
import struct
import threading
import time
from time import perf_counter

import pytest

from helpers import build_bounded, build_graph, build_pattern
from repro.engine import QueryEngine
from repro.errors import ServerClosedError, ServerOverloadedError
from repro.graph.io import node_to_json, pattern_to_json
from repro.serve import (
    Epoch,
    QueryServer,
    ServedAnswer,
    SnapshotRegistry,
    protocol,
    serve_tcp,
    wire,
)
from repro.simulation import match
from repro.views import Delta, ViewDefinition, ViewSet
from repro.views.maintenance import IncrementalViewSet


def _graph():
    return build_graph(
        {1: "A", 2: "B", 3: "C", 4: "A", 5: "B", 6: "C"},
        [(1, 2), (2, 3), (4, 5), (5, 6), (2, 6)],
    )


def _definitions():
    return [
        ViewDefinition("AB", build_pattern({"a": "A", "b": "B"}, [("a", "b")])),
        ViewDefinition("BC", build_pattern({"b": "B", "c": "C"}, [("b", "c")])),
    ]


AB = build_pattern({"x": "A", "y": "B"}, [("x", "y")])
BC = build_pattern({"x": "B", "y": "C"}, [("x", "y")])
#: Reads view AB like ``AB`` does, under a fingerprint of its own.
AB_TOO = build_pattern({"p": "A", "q": "B"}, [("p", "q")])
AC_WITHIN_2 = build_bounded({"x": "A", "y": "C"}, [("x", "y", 2)])
NO_MATCH = build_pattern({"x": "C", "y": "A"}, [("x", "y")])


def make_server(**kwargs):
    """A served engine over the tiny graph, maintenance attached.
    Returns (server, tracker) -- ``tracker.graph`` is the live graph
    (the engine adopts the tracker's copy on attach)."""
    graph = _graph()
    definitions = _definitions()
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)
    return QueryServer(engine, **kwargs), tracker


class Gate:
    """Holds every ``_evaluate`` call until released (30s failsafe)."""

    def __init__(self, server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._original = server._evaluate
        server._evaluate = self._gated

    def _gated(self, plan, epoch):
        self.calls += 1
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("Gate never released")
        return self._original(plan, epoch)

    async def wait_entered(self):
        await asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 30
        )


async def spin_until(predicate, timeout=10.0):
    """Cede the loop until ``predicate()`` holds (tests only)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition never held")
        await asyncio.sleep(0.005)


class TestEpoch:
    def test_pin_release_refcount(self):
        epoch = Epoch(0, object())
        epoch.acquire()
        epoch.acquire()
        assert epoch.readers == 2
        epoch.release()
        assert epoch.readers == 1
        assert not epoch.drained
        epoch.retire()
        assert epoch.retired and not epoch.drained
        epoch.release()
        assert epoch.drained
        assert epoch.wait_drained(0.1)

    def test_over_release_is_an_error(self):
        epoch = Epoch(0, object())
        with pytest.raises(RuntimeError):
            epoch.release()

    def test_retire_with_no_readers_drains_immediately(self):
        epoch = Epoch(3, object())
        epoch.retire()
        assert epoch.drained

    def test_registry_swap_retires_previous(self):
        registry = SnapshotRegistry()
        with pytest.raises(RuntimeError):
            registry.pin()
        assert registry.current_id == -1
        first = registry.swap("ck0")
        assert (first.epoch_id, registry.current_id) == (0, 0)
        pinned = registry.pin()
        assert pinned is first
        second = registry.swap("ck1")
        assert second.epoch_id == 1
        assert first.retired and not first.drained  # reader still on it
        pinned.release()
        assert first.drained
        stats = registry.drain_stats()
        assert stats == {"swaps": 1, "draining": 0, "drained": 1}


class TestServerLifecycle:
    def test_requires_a_graph(self):
        engine = QueryEngine(ViewSet(_definitions()))
        with pytest.raises(ValueError):
            QueryServer(engine)

    def test_validates_admission_parameters(self):
        graph = _graph()
        engine = QueryEngine(ViewSet(_definitions()), graph=graph)
        with pytest.raises(ValueError):
            QueryServer(engine, max_inflight=0)
        with pytest.raises(ValueError):
            QueryServer(engine, max_queue=-1)

    def test_query_before_start_and_after_stop(self):
        async def run():
            server, _ = make_server()
            with pytest.raises(ServerClosedError):
                await server.query(AB)
            async with server:
                answer = await server.query(AB)
                assert answer.epoch == 0
            with pytest.raises(ServerClosedError) as err:
                await server.query(AB)
            assert err.value.retriable is False

        asyncio.run(run())

    def test_clean_shutdown_drains_inflight_requests(self):
        async def run():
            server, _ = make_server()
            await server.start()
            gate = Gate(server)
            inflight = asyncio.ensure_future(server.query(AB))
            await gate.wait_entered()
            stopper = asyncio.ensure_future(server.stop())
            # stop() refuses new work immediately...
            await spin_until(lambda: server.closing)
            with pytest.raises(ServerClosedError):
                await server.query(BC)
            # ...but waits for the pinned reader, which completes fine.
            assert not stopper.done()
            gate.release.set()
            answer = await inflight
            await stopper
            assert answer.epoch == 0 and answer.result.result_size > 0
            await server.stop()  # idempotent

        asyncio.run(run())


class TestEpochSwap:
    def test_reader_pinned_before_update_sees_old_epoch(self):
        async def run():
            server, tracker = make_server()
            before = tracker.graph  # a snapshot: updates build the next one
            async with server:
                gate = Gate(server)
                early = asyncio.ensure_future(server.query(AB))
                await gate.wait_entered()  # pinned + evaluating on epoch 0

                # Maintenance swaps to epoch 1 while the reader is held.
                outcome = await server.update(Delta().insert(4, 2).delete(1, 2))
                assert outcome.epoch == 1
                assert server.current_epoch == 1
                stats = server.stats()["epoch"]
                assert stats["draining"] == 1  # epoch 0: retired, pinned

                gate.release.set()
                answer = await early
                # Served from the epoch it pinned, with *that* epoch's data.
                assert answer.epoch == 0
                assert (
                    answer.result.edge_matches
                    == match(AB, before).edge_matches
                )

                late = await server.query(AB)
                assert late.epoch == 1
                assert (
                    late.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )
                drain = server.stats()["epoch"]
                assert drain["draining"] == 0 and drain["drained"] == 1

        asyncio.run(run())

    def test_updates_never_block_readers(self):
        async def run():
            server, tracker = make_server()
            async with server:
                for round_index in range(4):
                    source = 10 + round_index
                    update = asyncio.ensure_future(
                        server.update(Delta().insert(source, 2))
                    )
                    # Readers admitted while maintenance runs still finish.
                    answers = await asyncio.gather(
                        *(server.query(AB) for _ in range(3))
                    )
                    outcome = await update
                    for answer in answers:
                        assert answer.epoch in (outcome.epoch - 1, outcome.epoch)
                assert server.current_epoch == 4
                final = await server.query(AB)
                assert (
                    final.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )

        asyncio.run(run())


class TestCoalescing:
    def test_identical_inflight_queries_coalesce_to_one_evaluation(self):
        async def run():
            server, _ = make_server()
            async with server:
                gate = Gate(server)
                queries = [
                    asyncio.ensure_future(server.query(AB)) for _ in range(5)
                ]
                await gate.wait_entered()
                # 4 followers parked on the owner's future.
                await spin_until(
                    lambda: server.stats()["requests"]["coalesced"] == 4
                )
                gate.release.set()
                answers = await asyncio.gather(*queries)

                assert gate.calls == 1
                requests = server.stats()["requests"]
                assert requests["evaluated"] == 1
                assert requests["coalesced"] == 4
                owners = [a for a in answers if not a.coalesced]
                assert len(owners) == 1
                reference = owners[0].result.edge_matches
                for answer in answers:
                    assert answer.result.edge_matches == reference
                    assert answer.epoch == 0

                # A later identical query at the same versions: LRU hit.
                again = await server.query(AB)
                assert again.cache_hit
                assert server.stats()["requests"]["cache_hits"] == 1

        asyncio.run(run())

    def test_distinct_queries_do_not_coalesce(self):
        async def run():
            server, _ = make_server()
            async with server:
                gate = Gate(server)
                a = asyncio.ensure_future(server.query(AB))
                b = asyncio.ensure_future(server.query(BC))
                await spin_until(lambda: gate.calls == 2)
                gate.release.set()
                await asyncio.gather(a, b)
                requests = server.stats()["requests"]
                assert requests["evaluated"] == 2
                assert requests["coalesced"] == 0

        asyncio.run(run())

    def test_coalesced_queries_on_different_epochs_evaluate_separately(self):
        async def run():
            server, _ = make_server()
            async with server:
                first = await server.query(AB)
                # Swap epochs; same pattern must not reuse epoch-0 entry
                # (the delta touches AB's view, so the stamp moved).
                await server.update(Delta().insert(4, 2))
                second = await server.query(AB)
                assert (first.epoch, second.epoch) == (0, 1)
                assert not second.cache_hit
                assert second.result.result_size > first.result.result_size

        asyncio.run(run())


class TestBackpressure:
    def test_overload_sheds_with_retriable_error(self):
        async def run():
            server, _ = make_server(max_inflight=1, max_queue=1)
            async with server:
                gate = Gate(server)
                running = asyncio.ensure_future(server.query(AB))
                await gate.wait_entered()
                queued = asyncio.ensure_future(server.query(BC))
                await spin_until(
                    lambda: server.stats()["requests"]["inflight"] == 2
                )
                # Admission is full: 1 evaluating + 1 queued.
                with pytest.raises(ServerOverloadedError) as err:
                    await server.query(AB)
                assert err.value.retriable is True
                assert server.stats()["requests"]["shed"] == 1

                # Shedding never wedges the server: held work completes.
                gate.release.set()
                answers = await asyncio.wait_for(
                    asyncio.gather(running, queued), timeout=30
                )
                assert all(a.result is not None for a in answers)
                requests = server.stats()["requests"]
                assert requests["completed"] == 2
                assert requests["inflight"] == 0
                after = await server.query(AB)  # admission reopened
                assert after.cache_hit

        asyncio.run(run())


class TestStats:
    def test_stats_shape(self):
        async def run():
            server, _ = make_server()
            async with server:
                await server.query(AB)
                await server.update(Delta().insert(7, 1).delete(7, 1).delete(9, 9))
                stats = server.stats()
                assert stats["epoch"]["current"] == 1
                assert stats["epoch"]["swaps"] == 1  # one transition
                assert stats["requests"]["admitted"] == 1
                assert stats["requests"]["deltas"] == 1
                assert stats["requests"]["ops_applied"] == 2
                assert stats["requests"]["ops_skipped"] == 1
                assert {"AB", "BC"} <= set(stats["views"])
                assert "served_answers" in stats["caches"]
                assert "answers" in stats["caches"]

        asyncio.run(run())


class TestTcpProtocol:
    def test_round_trip(self):
        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def call(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                pong = await call({"op": "ping"})
                assert pong == {"ok": True, "epoch": 0, "pong": True}

                answer = await call(
                    {"op": "query", "pattern": pattern_to_json(AB)}
                )
                assert answer["ok"] and answer["epoch"] == 0
                assert answer["result"]["pairs"] > 0

                updated = await call(
                    {"op": "update", "ops": [["+", 4, 2], ["-", 1, 2]]}
                )
                assert updated["ok"] and updated["epoch"] == 1
                assert updated["applied"] == 2

                stats = await call({"op": "stats"})
                assert stats["ok"] and stats["stats"]["epoch"]["current"] == 1

                bad = await call({"op": "frobnicate"})
                assert bad["ok"] is False and bad["retriable"] is False
                bad_pattern = await call({"op": "query"})
                assert bad_pattern["ok"] is False

                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())


    def test_a_refused_update_leaves_the_next_one_applying(self):
        async def run():
            server, tracker = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def call(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                bad = await call(
                    {"op": "update", "ops": [["+", 4, 2], ["+", {"x": 1}, 3]]}
                )
                assert bad["ok"] is False
                assert bad["error"].startswith("bad request")
                assert not tracker.graph.has_edge(4, 2)
                updated = await call({"op": "update", "ops": [["+", 4, 2]]})
                assert updated["ok"] and updated["epoch"] == 1
                assert updated["applied"] == 1
                assert tracker.graph.has_edge(4, 2)
                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())

    def test_oversize_line_is_answered_then_closed(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)

        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                # Several stream limits long: the rest of the line is
                # still in flight when the server notices.
                ping = {"op": "ping", "pad": "x" * (5 * 4096)}
                writer.write(json.dumps(ping).encode() + b"\n")
                writer.write(b'{"op": "ping"}\n')  # never served
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply == {
                    "ok": False,
                    "error": "request line exceeds 4096 bytes",
                    "retriable": False,
                }
                assert await reader.read() == b""  # orderly close, no reset
                writer.close()

                # The server itself is unharmed.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b'{"op": "ping"}\n')
                assert json.loads(await reader.readline())["pong"] is True
                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())

    def test_clients_that_reset_mid_pipeline_leave_nothing_behind(self, caplog):
        # Clients pipeline query lines, then reset the connection (RST:
        # SO_LINGER 0) without reading a reply, around an epoch swap.
        # Nothing is logged, admission and every epoch pin drain, and
        # the next client is answered correctly.
        caplog.set_level(logging.WARNING)
        queries = [AB, BC, AB_TOO, AC_WITHIN_2, NO_MATCH]
        lines = b"".join(
            json.dumps({"op": "query", "pattern": pattern_to_json(q)}).encode() + b"\n"
            for q in queries
        )

        async def reset_clients(port, count):
            clients = [
                await asyncio.open_connection("127.0.0.1", port) for _ in range(count)
            ]
            for _, writer in clients:
                writer.write(lines * 4)
                await writer.drain()
            for _, writer in clients:
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.transport.abort()

        async def run():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _, context: unhandled.append(context))
            server, tracker = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                await reset_clients(port, 10)
                await server.update(Delta().insert(4, 2))
                await reset_clients(port, 10)

                def settled():
                    requests = server.stats()["requests"]
                    done = requests["completed"] + requests["failed"] + requests["shed"]
                    return requests["inflight"] == 0 and requests["admitted"] == done

                await spin_until(settled)
                await asyncio.sleep(0.1)  # handlers see their resets
                await spin_until(settled)
                stats = server.stats()
                assert stats["requests"]["failed"] == 0
                assert stats["epoch"]["active_readers"] == 0
                assert stats["epoch"]["draining"] == 0

                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(lines[: lines.index(b"\n") + 1])
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] and reply["epoch"] == 1
                expected = match(AB, tracker.graph).edge_matches[("x", "y")]
                assert reply["result"]["pairs"] == len(expected)
                writer.close()
                tcp.close()
                await tcp.wait_closed()
            assert unhandled == []

        asyncio.run(run())
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_large_update_under_the_limit_is_served(self):
        async def run():
            server, tracker = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
                )
                # The ops alone overflow asyncio's default 64 KiB line;
                # whitespace (legal JSON) takes the same request to the
                # last byte the server accepts.
                ops = [["+", 4, 2]] + [["-", 1000 + i, 2000 + i] for i in range(4000)]
                body = json.dumps({"op": "update", "ops": ops})
                assert len(body) > 64 * 1024
                line = body[:-1] + " " * (protocol.MAX_LINE_BYTES - len(body)) + "}"
                assert len(line) == protocol.MAX_LINE_BYTES
                writer.write(line.encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] and reply["epoch"] == 1
                assert (reply["applied"], reply["skipped"]) == (1, 4000)
                assert tracker.graph.has_edge(4, 2)

                # One byte more is one byte too many.
                writer.write(line.encode() + b" \n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert reply["ok"] is False and "exceeds" in reply["error"]
                writer.close()
                tcp.close()
                await tcp.wait_closed()

        asyncio.run(run())


def legacy_reply(answer: ServedAnswer) -> bytes:
    """The reply line as the protocol built it before replies were
    spliced from cached fragments: one dict, one ``json.dumps``.  Kept
    here as the reference the wire contract is stated against."""
    result = answer.result
    return json.dumps(
        {
            "ok": True,
            "epoch": answer.epoch,
            "cache_hit": answer.cache_hit,
            "coalesced": answer.coalesced,
            "elapsed_ms": answer.elapsed * 1e3,
            "result": {
                "pairs": result.result_size,
                "node_matches": {
                    str(node): sorted(
                        (node_to_json(v) for v in values), key=repr
                    )
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
        },
        default=str,
    ).encode() + b"\n"


class TestHitPath:
    @pytest.mark.parametrize(
        "pattern, empty",
        [(AB, False), (AC_WITHIN_2, False), (NO_MATCH, True)],
        ids=["plain", "bounded", "empty"],
    )
    def test_reply_bytes_equal_the_dict_encoding(self, pattern, empty):
        async def run():
            server, _ = make_server()
            async with server:
                tcp = await serve_tcp(server, port=0)
                port = tcp.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                request = json.dumps(
                    {"op": "query", "pattern": pattern_to_json(pattern)}
                ).encode() + b"\n"
                lines = []
                for _ in range(2):
                    writer.write(request)
                    await writer.drain()
                    lines.append(await reader.readline())
                writer.close()
                tcp.close()
                await tcp.wait_closed()

                miss, hit = (json.loads(line) for line in lines)
                assert (miss["cache_hit"], hit["cache_hit"]) == (False, True)
                assert (hit["result"]["pairs"] == 0) is empty
                # In process the same entry is a hit again; only the
                # five head fields differ from reply to reply.
                answer = await server.query(pattern, wire=True)
                assert answer.cache_hit and answer.elapsed == 0.0
                assert lines[1] == legacy_reply(answer)
                assert lines[1] == wire.query_reply(answer)
                # The miss that filled the entry sent the same fragment.
                splice = b', "result": '
                assert lines[0].split(splice, 1)[1] == lines[1].split(splice, 1)[1]
                # An evaluated answer's own reply, arbitrary float and all.
                fresh = await server.query(AB_TOO, wire=True)
                assert not fresh.cache_hit and fresh.elapsed > 0.0
                assert wire.query_reply(fresh) == legacy_reply(fresh)

        asyncio.run(run())

    def test_warm_hits_never_leave_the_loop(self, monkeypatch):
        async def run():
            server, _ = make_server()
            async with server:
                for pattern in (AB, BC, AC_WITHIN_2):
                    await server.query(pattern, wire=True)
                calls = {"submit": 0, "plan": 0, "encode": 0}

                def counting(name, fn):
                    def wrapper(*args, **kwargs):
                        calls[name] += 1
                        return fn(*args, **kwargs)
                    return wrapper

                server._pool.submit = counting("submit", server._pool.submit)
                server.engine.plan_on = counting("plan", server.engine.plan_on)
                monkeypatch.setattr(
                    "repro.serve.server.result_fragment",
                    counting("encode", wire.result_fragment),
                )
                logged = len(server.engine.plan_log())
                for _ in range(5):
                    for pattern in (AB, BC, AC_WITHIN_2):
                        answer = await server.query(pattern, wire=True)
                        assert answer.cache_hit and answer.wire
                assert calls == {"submit": 0, "plan": 0, "encode": 0}
                # Still one plan-choice record per delivered answer.
                records = server.engine.plan_log()
                assert len(records) == logged + 15
                assert all(r.cache_hit for r in records[:15])
                recent = server.traces.recent(1)[0]["attrs"]
                assert recent["resolved"] == "memo"
                assert recent["wire"] == "cached"
                assert recent["outcome"] == "cache-hit"
                # The wrappers do count when something does hop.
                await server.query(AB_TOO, wire=True)
                assert calls == {"submit": 2, "plan": 1, "encode": 1}

        asyncio.run(run())

    def test_an_owner_miss_encodes_on_its_evaluation_hop(self, monkeypatch):
        threads = []

        def slow_encode(result):
            threads.append(threading.current_thread().name)
            time.sleep(0.1)  # an encode ``elapsed`` must not include
            return wire.result_fragment(result)

        monkeypatch.setattr("repro.serve.server.result_fragment", slow_encode)

        async def run():
            server, _ = make_server()
            async with server:
                loop = threading.current_thread().name
                for pattern in (AB, AC_WITHIN_2, NO_MATCH):
                    answer = await server.query(pattern, wire=True)
                    assert not answer.cache_hit and answer.elapsed < 0.1
                    assert wire.query_reply(answer) == legacy_reply(answer)
                    root = server.traces.recent(1)[0]
                    assert root["attrs"]["wire"] == "encoded"
                    encode = [c for c in root["children"] if c["name"] == "encode"]
                    assert encode[0]["attrs"]["bytes"] == len(answer.wire)
                assert len(threads) == 3 and loop not in threads
                assert all(name.startswith("repro-serve-read") for name in threads)
                hit = await server.query(AB, wire=True)
                assert hit.cache_hit and len(threads) == 3
                # An owner that asked without ``wire`` encodes nothing;
                # the first reader over the wire encodes, on the loop.
                assert (await server.query(BC)).wire is None and len(threads) == 3
                late = await server.query(BC, wire=True)
                assert late.cache_hit and threads[3:] == [loop]
                assert wire.query_reply(late) == legacy_reply(late)
                assert server.traces.recent(1)[0]["attrs"]["wire"] == "encoded"

        asyncio.run(run())

    def test_untraced_evaluation_packages_nothing(self):
        async def run():
            server, _ = make_server()
            async with server:
                epoch = server._registry.pin()
                try:
                    plan = server.engine.plan_on(epoch.checkpoint, AB, None)
                    result, _ = server._evaluate(plan, epoch)
                finally:
                    epoch.release()
            # Checked here: a coroutine's return value may be repr'd.
            assert plan.strategy == "matchjoin" and result
            assert dict.__len__(result.edge_matches) == 0
            assert dict.__len__(result.node_matches) == 0
            assert result.edge_matches == match(AB, _graph()).edge_matches

        asyncio.run(run())

    def test_swap_drops_exactly_the_stranded_entries(self):
        async def run():
            server, tracker = make_server()
            before = tracker.graph  # a snapshot: updates build the next one
            async with server:
                for pattern in (AB, BC):
                    await server.query(pattern, wire=True)
                cached = server.stats()["caches"]["served_answers"]
                assert len(server._answers) == 2 and cached["bytes"] > 0

                # A reader pinned to epoch 0, held inside evaluation.
                gate = Gate(server)
                early = asyncio.ensure_future(server.query(AB_TOO))
                await gate.wait_entered()

                # 4 -> 2 is an A -> B edge: view AB changes, BC does not.
                outcome = await server.update(Delta().insert(4, 2))
                assert list(outcome.report.changed_views) == ["AB"]
                after = server.stats()["caches"]["served_answers"]
                assert len(server._answers) == 1
                assert after["evictions"] == cached["evictions"] + 1
                assert 0 < after["bytes"] < cached["bytes"]
                swap = [
                    child
                    for child in server.traces.recent(1)[0]["children"]
                    if child["name"] == "swap"
                ]
                assert swap[0]["attrs"]["dropped"] == 1

                untouched = await server.query(BC)
                assert untouched.cache_hit and untouched.epoch == 1

                # The pinned reader finishes on the epoch it pinned.
                gate.release.set()
                answer = await early
                assert answer.epoch == 0
                assert (
                    answer.result.edge_matches
                    == match(AB_TOO, before).edge_matches
                )
                touched = await server.query(AB)
                assert not touched.cache_hit and touched.epoch == 1
                assert (
                    touched.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )
                # Its entry is keyed by epoch 0's stamps: no reader of
                # epoch 1 hits it, and the next swap takes it away.
                late = await server.query(AB_TOO)
                assert not late.cache_hit and late.epoch == 1
                assert (
                    late.result.edge_matches
                    == match(AB_TOO, tracker.graph).edge_matches
                )
                entries = len(server._answers)
                await server.update(Delta().insert(1, 5))
                assert len(server._answers) == entries - 3  # AB, both AB_TOO
                assert (await server.query(BC)).cache_hit

        asyncio.run(run())

    def test_an_evicted_extension_is_back_on_the_next_epoch(self):
        graph = _graph()
        definitions = _definitions()
        tracker = IncrementalViewSet(definitions, graph)
        engine = QueryEngine(ViewSet(definitions), graph=graph)
        engine.attach_maintenance(tracker)

        async def run():
            async with QueryServer(engine) as server:
                first = await server.query(AB)
                (resolution,) = server._registry.current.resolutions.values()
                assert resolution.plan.strategy == "matchjoin"
                stamp = resolution.plan.cache_key[3]

                # The next checkpoint rebuilds what was evicted (3 -> 6
                # touches no view, so maintenance does not); the
                # containment stays cached, the answer key moves.
                engine.evict_extensions(["AB"])
                await server.update(Delta().insert(3, 6))
                current = server._registry.current
                assert "AB" in current.checkpoint.extensions
                rebuilt = await server.query(AB)
                (resolution,) = current.resolutions.values()
                assert resolution.plan.containment_cached
                assert resolution.plan.strategy == "matchjoin"
                assert resolution.plan.cache_key[3] != stamp
                assert not rebuilt.cache_hit
                assert (
                    rebuilt.result.edge_matches
                    == first.result.edge_matches
                    == match(AB, tracker.graph).edge_matches
                )
                again = await server.query(AB)
                assert again.cache_hit
                attrs = server.traces.recent(1)[0]["attrs"]
                assert attrs["resolved"] == "memo"

        asyncio.run(run())

    def test_resolution_memo_is_bounded_by_the_answer_cache(self):
        async def run():
            server, _ = make_server(answer_cache_size=2)
            async with server:
                for pattern in (AB, BC, AB_TOO, NO_MATCH, AC_WITHIN_2):
                    await server.query(pattern)
                    assert len(server._registry.current.resolutions) <= 2

        asyncio.run(run())


class TestLockRule:
    def test_loop_stays_live_while_maintenance_holds_the_engine(self):
        """Hits are served, the loop keeps ticking, and even a miss
        completes -- planned and evaluated on the epoch it pinned --
        for as long as another thread holds the catalog lock."""

        async def run():
            server, tracker = make_server()
            async with server:
                await server.query(AB, wire=True)
                loop = asyncio.get_running_loop()
                held, release = threading.Event(), threading.Event()

                def hold():
                    with server.engine.catalog.lock:
                        held.set()
                        release.wait(timeout=5)  # failsafe: a blocked loop

                holder = threading.Thread(target=hold)
                holder.start()
                try:
                    await loop.run_in_executor(None, held.wait, 5)
                    gaps = []

                    async def ticker():
                        last = perf_counter()
                        while True:
                            await asyncio.sleep(0.005)
                            now = perf_counter()
                            gaps.append(now - last)
                            last = now

                    ticking = asyncio.ensure_future(ticker())
                    miss = asyncio.ensure_future(server.query(BC, wire=True))
                    hits, slowest = 0, 0.0
                    deadline = loop.time() + 0.2
                    while loop.time() < deadline:
                        started = perf_counter()
                        answer = await server.query(AB, wire=True)
                        slowest = max(slowest, perf_counter() - started)
                        assert answer.cache_hit
                        hits += 1
                        await asyncio.sleep(0.001)
                    # All of that happened under the held lock -- which
                    # a resolution no longer waits for.
                    answer = await asyncio.wait_for(miss, timeout=5)
                    assert holder.is_alive() and not release.is_set()
                    assert not answer.cache_hit
                    ticking.cancel()
                    assert hits >= 10
                    assert slowest < 0.1, slowest
                    assert len(gaps) >= 10 and max(gaps) < 0.1, max(gaps)
                finally:
                    release.set()
                    holder.join(timeout=5)
                assert not holder.is_alive()
                assert (
                    answer.result.edge_matches
                    == match(BC, tracker.graph).edge_matches
                )

        asyncio.run(run())
