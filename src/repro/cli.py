"""Command-line interface: the view-cache workflow end to end.

Subcommands (``python -m repro <command> --help`` lists each one's
options)::

    generate     write a dataset stand-in (and its view suite)
    contain      report containment / view selection for a query
    query        answer queries through the planned, cached QueryEngine
    maintain     replay an edge update stream through a maintained engine
    serve        run the asyncio query service (JSON lines over TCP)
    trace        answer one query through a server, print its span tree
    stats        graph / view-cache size accounting
    ingest       stream an edge list into a sharded on-disk snapshot
    snapshot     save / load / info: persistent mmap snapshot directories
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

# Every handler imports what it runs: `python -m repro <command>` loads
# only the modules that command needs, so a `snapshot load` never pays
# for the dataset generators or the server (the layering test pins it).

_DATASETS = ("amazon", "citation", "synthetic", "youtube")
_SELECTIONS = ("all", "minimal", "minimum")


def _error(err) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 1


def _print_answer(label: str, result, note: str = "") -> None:
    """One answer line, ``label: N pairs via <strategy | cache> (T ms)``;
    the ``cold_boot`` benchmark parses it off ``snapshot load --query``."""
    stats = result.stats
    provenance = "cache" if stats.cache_hit else stats.strategy
    print(
        f"{label}: {result.result_size} pairs via {provenance} "
        f"({stats.elapsed * 1e3:.2f} ms{note})"
    )


def _store_row(store) -> dict:
    """One flat segment's byte accounting (``stats --format json``)."""
    return {
        "backend": store.backend,
        "tables": store.table_bytes(),
        "total_bytes": store.total_bytes,
        "on_disk_bytes": store.on_disk_bytes,
    }


def _maintained_engine(args, selection: str = "minimal"):
    """The engine ``serve --graph`` and ``maintain`` run: its tracker
    maintains the engine's own graph in place, and every update goes
    through :meth:`~repro.engine.QueryEngine.apply_delta`."""
    from repro.engine import QueryEngine
    from repro.graph.io import read_graph
    from repro.views.io import read_viewset
    from repro.views.maintenance import IncrementalViewSet

    graph, views = read_graph(args.graph), read_viewset(args.views)
    tracker = IncrementalViewSet(views.definitions(), graph)
    engine = QueryEngine(views, graph=graph, selection=selection)
    engine.attach_maintenance(tracker)
    return engine


def _cmd_generate(args) -> int:
    from repro import datasets
    from repro.graph.io import write_graph
    from repro.views.io import write_viewset

    if args.dataset == "synthetic":
        graph = datasets.random_graph(args.nodes, args.edges, seed=args.seed)
        views = datasets.generate_views(
            tuple(f"l{i}" for i in range(10)), 22, seed=args.seed
        )
    else:
        graph_fn = getattr(datasets, f"{args.dataset}_graph")
        graph = graph_fn(args.nodes, args.edges, seed=args.seed)
        views = getattr(datasets, f"{args.dataset}_views")()
    write_graph(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    if args.views and views is not None:
        write_viewset(views, args.views)
        print(f"wrote {views.cardinality} view definitions to {args.views}")
    return 0


def _cmd_contain(args) -> int:
    from repro.core.containment import selector
    from repro.graph.io import read_pattern
    from repro.graph.pattern import BoundedPattern
    from repro.views.io import read_viewset

    try:
        query = read_pattern(args.query)
        views = read_viewset(args.views)
    except (OSError, ValueError) as err:
        return _error(err)
    bounded = isinstance(query, BoundedPattern) or any(d.is_bounded for d in views)
    containment = selector(args.strategy, bounded)(query, views)
    if containment.holds:
        print(f"contained: yes ({args.strategy} selection)")
        print(f"views used: {', '.join(containment.views_used())}")
        for edge, refs in sorted(containment.mapping.items(), key=repr):
            targets = ", ".join(f"{name}:{ve[0]}->{ve[1]}" for name, ve in refs)
            print(f"  {edge[0]} -> {edge[1]}  <=  {targets}")
        return 0
    print("contained: no")
    for edge in sorted(containment.uncovered, key=repr):
        print(f"  uncovered: {edge[0]} -> {edge[1]}")
    return 1


def _cmd_query(args) -> int:
    from repro.engine import QueryEngine
    from repro.graph.io import read_graph, read_pattern
    from repro.views.io import read_viewset

    if args.out and len(args.query) > 1:
        return _error(f"--out writes one query's result, not {len(args.query)}")
    try:
        queries = [read_pattern(path) for path in args.query]
        views = read_viewset(args.views)
        graph = read_graph(args.graph)
    except (OSError, ValueError) as err:
        return _error(err)
    engine = QueryEngine(views, graph=graph, selection=args.strategy)
    if args.explain:
        for path, query in zip(args.query, queries):
            print(f"-- {path}")
            print(engine.plan(query).explain())
        return 0
    for round_index in range(max(1, args.repeat)):
        results = engine.answer_batch(queries)
        total = sum(r.stats.elapsed for r in results)
        label = "cold" if round_index == 0 else f"warm #{round_index}"
        print(f"[{label}] {len(results)} queries in {total * 1e3:.2f} ms")
        for path, result in zip(args.query, results):
            _print_answer(f"  {path}", result)
    for which, counters in engine.cache_stats().items():
        print(
            f"{which} cache: {counters['hits']} hits / "
            f"{counters['misses']} misses"
        )
    if args.out:
        rows = {f"{u}->{v}": pairs for (u, v), pairs in results[0].to_table()}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, default=str)
        print(f"result written to {args.out}")
    return 0


def _cmd_maintain(args) -> int:
    from repro.views.maintenance import Delta
    from repro.views.view import materialize as _materialize

    try:
        with open(args.updates, encoding="utf-8") as handle:
            delta = Delta.parse(handle)
        engine = _maintained_engine(args)
    except (OSError, ValueError) as err:
        return _error(err)
    graph, views, tracker = engine.graph, engine.views, engine.maintenance
    previous = engine.snapshot()
    batch_size = max(1, args.batch)
    ops = delta.ops
    batches = [
        Delta(ops[start : start + batch_size])
        for start in range(0, len(ops), batch_size)
    ]
    snapshot_refreshes = snapshot_rebuilds = 0
    retained_batches = {name: 0 for name in tracker.names()}
    applied = skipped = 0
    stale_bounded: set = set()
    for batch in batches:
        report = engine.apply_delta(batch)
        applied += report.applied
        skipped += report.skipped
        stale_bounded.update(report.stale_bounded)
        for name in tracker.names():
            if name not in report.changed_views:
                retained_batches[name] += 1
        refreshed = engine.snapshot()
        if refreshed is not previous:
            if refreshed.extends_token == previous.snapshot_token:
                snapshot_refreshes += 1
            else:
                snapshot_rebuilds += 1
            previous = refreshed
        if args.verify:
            for name in tracker.names():
                fresh = _materialize(views.definition(name), graph)
                if views.extension(name).edge_matches != fresh.edge_matches:
                    return _error(
                        f"view {name!r} diverged from rematerialization"
                    )
    per_view = {
        name: stats.snapshot() for name, stats in tracker.stats().items()
    }
    payload = {
        "updates": {
            "total": len(ops),
            "applied": applied,
            "skipped": skipped,
            "batches": len(batches),
            "batch_size": batch_size,
        },
        "views": {
            name: dict(
                counters,
                retained_batches=retained_batches[name],
            )
            for name, counters in per_view.items()
        },
        "snapshot": {
            "refreshes": snapshot_refreshes,
            "rebuilds": snapshot_rebuilds,
        },
        "stale_bounded": sorted(stale_bounded, key=str),
        "verified": bool(args.verify),
    }
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(
        f"replayed {applied} updates ({skipped} skipped) in "
        f"{len(batches)} batches of <= {batch_size}"
    )
    print(
        f"graph snapshot: {snapshot_refreshes} incremental refreshes, "
        f"{snapshot_rebuilds} full rebuilds"
    )
    for name, counters in per_view.items():
        print(
            f"  view {name}: {counters['incremental_inserts']} incremental / "
            f"{counters['recomputes']} recomputed / "
            f"{counters['irrelevant_inserts']} irrelevant inserts, "
            f"{counters['deletions']} deletions "
            f"({counters['removed_pairs']} pairs pruned, "
            f"{counters['revived_pairs']} revived); "
            f"cached answers retainable through "
            f"{retained_batches[name]}/{len(batches)} batches"
        )
    if stale_bounded:
        print(
            "stale bounded views (not maintained incrementally, "
            "rematerialize before reading): "
            + ", ".join(sorted(stale_bounded, key=str))
        )
    if args.verify:
        print("verified: maintained extensions == rematerialization "
              "at every batch checkpoint")
    return 0


def _cmd_ingest(args) -> int:
    """Stream an edge list into a sharded on-disk snapshot directory."""
    import zlib

    from repro.graph.ingest import ingest_snapshot
    from repro.graph.io import read_snap_edges

    labeler = None
    if args.labels:
        buckets = args.labels

        def labeler(node, _k=buckets):
            return (f"l{zlib.crc32(repr(node).encode()) % _k}",)

    try:
        report = ingest_snapshot(
            read_snap_edges(args.edges),
            args.out,
            num_shards=args.shards,
            labeler=labeler,
            budget_bytes=args.budget_mb << 20,
            max_edges=args.max_edges,
            overwrite=args.overwrite,
        )
    except (OSError, ValueError) as err:
        return _error(err)
    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        print()
        return 0
    print(
        f"ingested {report.edges} edges / {report.nodes} nodes into "
        f"{report.shards} shards at {report.out_dir} "
        f"({report.cut_edges} cut edges, "
        f"{report.on_disk_bytes / (1 << 20):.1f} MiB on disk) "
        f"in {report.seconds:.2f}s"
    )
    print(
        f"  spill traffic {report.spill_bytes / (1 << 20):.1f} MiB, "
        f"peak builder RSS growth {report.peak_rss_bytes / (1 << 20):.1f} MiB"
    )
    return 0


def _cmd_snapshot_save(args) -> int:
    from repro.graph.io import read_graph
    from repro.graph.snapshot import SnapshotStore
    from repro.views.io import read_viewset

    try:
        graph = read_graph(args.graph)
        views = read_viewset(args.views) if args.views else None
    except (OSError, ValueError) as err:
        return _error(err)
    if views is not None:
        views.materialize(graph)
    try:
        manifest = SnapshotStore.save(
            args.out, graph, views=views, overwrite=args.overwrite
        )
    except (OSError, ValueError) as err:
        return _error(err)
    meta = manifest.get("graph", {})
    print(
        f"saved {manifest.get('kind')} snapshot to {args.out}: "
        f"{meta.get('nodes')} nodes / {meta.get('edges')} edges, "
        f"{len(manifest.get('views', {}))} views"
    )
    return 0


def _cmd_snapshot_load(args) -> int:
    from repro.graph.snapshot import SnapshotStore

    try:
        loaded = SnapshotStore.load(args.path, verify=args.verify)
    except (OSError, ValueError) as err:
        return _error(err)
    graph = loaded.graph
    kind = loaded.manifest.get("kind")
    shards = getattr(graph, "num_shards", None)
    print(
        f"loaded {kind} snapshot from {loaded.path}: "
        f"{graph.num_nodes} nodes / {graph.num_edges} edges"
        + (f" across {shards} shards" if shards is not None else "")
        + f", {len(loaded.views)} views"
        + (" (payload CRCs verified)" if args.verify else "")
    )
    if not args.query:
        return 0
    from repro.engine import QueryEngine
    from repro.errors import NotContainedError
    from repro.graph.io import read_pattern

    try:
        query = read_pattern(args.query)
    except OSError as err:
        return _error(err)
    engine = QueryEngine(snapshot_path=loaded, selection=args.strategy)
    try:
        result = engine.answer(query)
    except NotContainedError as err:
        return _error(err)
    _print_answer("query", result, ", no rebuild")
    return 0


def _cmd_snapshot_info(args) -> int:
    from repro.graph.snapshot import SnapshotStore

    try:
        info = SnapshotStore.info(args.path, verify=args.verify)
    except (OSError, ValueError) as err:
        return _error(err)
    if args.format == "json":
        json.dump(info, sys.stdout, indent=2)
        print()
        return 0
    manifest = info["manifest"]
    meta = manifest.get("graph", {})
    print(
        f"{manifest.get('kind')} snapshot (format {manifest.get('format')}): "
        f"{meta.get('nodes')} nodes / {meta.get('edges')} edges, "
        f"{len(manifest.get('views', {}))} views, "
        f"token {meta.get('snapshot_token')}"
        + (
            f" (extends {meta.get('extends_token')})"
            if meta.get("extends_token")
            else ""
        )
    )
    for name, size in info["files"].items():
        tables = info["segments"].get(name)
        detail = (
            f" ({sum(tables.values())} in {len(tables)} tables)"
            if tables is not None
            else ""
        )
        rows = info["boundary"].get(name)
        if rows:
            detail += (
                f"  [boundary rows: {rows['rows']} global ids, "
                f"{rows['bridge_pairs']} bridge pairs]"
            )
        marker = "  [crc ok]" if name in info["verified_segments"] else ""
        print(f"  {name}: {size} bytes{detail}{marker}")
    print(f"total on disk: {info['on_disk_bytes']} bytes")
    if info["stale"]:
        print("stale (an interrupted write; the next save removes it): "
              + ", ".join(info["stale"]))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.engine import QueryEngine
    from repro.obs.logsetup import install as install_logging
    from repro.serve import MetricsServer, QueryServer, serve_tcp

    install_logging(args.log_level)
    if args.snapshot is not None and (args.graph or args.views):
        return _error("--snapshot conflicts with --graph/--views")
    if args.snapshot is None and not (args.graph and args.views):
        return _error(
            "serve needs either --snapshot DIR or both --graph and --views"
        )
    persist = args.persist
    if persist == "":
        if args.snapshot is None:
            return _error("bare --persist (no directory) requires --snapshot")
        persist = args.snapshot
    try:
        if args.snapshot is not None:
            from repro.graph.snapshot import SnapshotStore

            loaded = SnapshotStore.load(args.snapshot)
            engine = QueryEngine(snapshot_path=loaded, selection=args.strategy)
        else:
            engine = _maintained_engine(args, args.strategy)
            skipped = engine.maintenance.skipped_bounded
            if skipped:
                print(
                    "note: bounded views are rematerialized per epoch, not "
                    "incrementally maintained: " + ", ".join(skipped),
                    file=sys.stderr,
                )
        graph, views = engine.graph, engine.views
        server = QueryServer(
            engine,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            persist_path=persist,
        )
    except (OSError, ValueError) as err:
        return _error(err)
    if args.snapshot is not None:
        print(f"booted from snapshot {args.snapshot} (mmap, no rebuild)",
              flush=True)
    if persist:
        print(f"persisting epoch snapshots to {persist}", flush=True)
    metrics = None
    if args.metrics_port is not None:
        metrics = MetricsServer(
            engine.registry.render_prometheus,
            stats=server.stats,
            host=args.host,
            port=args.metrics_port,
        ).start()
        print(
            f"metrics on http://{metrics.address[0]}:{metrics.address[1]}"
            "/metrics",
            flush=True,
        )

    async def main() -> None:
        async with server:
            tcp = await serve_tcp(server, host=args.host, port=args.port)
            host, port = tcp.sockets[0].getsockname()[:2]
            print(
                f"serving {graph.num_nodes} nodes / {graph.num_edges} edges, "
                f"{views.cardinality} views on {host}:{port} "
                f"(JSON lines; ops: query, update, stats, metrics, "
                f"slowlog, traces, plans, ping)",
                flush=True,
            )
            async with tcp:
                await tcp.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if metrics is not None:
            metrics.stop()
    return 0


def _cmd_trace(args) -> int:
    """Answer one query through a local :class:`QueryServer` and print
    the request's span tree plus its plan-choice record."""
    import asyncio

    from repro.engine import QueryEngine
    from repro.errors import NotContainedError
    from repro.graph.io import read_graph, read_pattern
    from repro.obs.trace import format_span_tree
    from repro.serve import QueryServer
    from repro.views.io import read_viewset

    try:
        query = read_pattern(args.query)
        views = read_viewset(args.views)
        graph = read_graph(args.graph)
    except (OSError, ValueError) as err:
        return _error(err)
    engine = QueryEngine(views, graph=graph, selection=args.strategy)
    server = QueryServer(engine)

    async def run():
        async with server:
            return await server.query(query)

    try:
        answer = asyncio.run(run())
    except NotContainedError as err:
        return _error(err)
    traces = server.traces.recent(1)
    plans = engine.plan_log(1)
    if args.format == "json":
        payload = {
            "result_pairs": answer.result.result_size,
            "epoch": answer.epoch,
            "trace": traces[0] if traces else None,
            "plan": plans[0].to_dict() if plans else None,
        }
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        return 0
    record = plans[0] if plans else None
    if record is not None:
        print(
            f"plan: {record.strategy} (selection={record.selection}, "
            f"snapshot={record.snapshot_kind}"
            + (f", fallback={record.reason}" if record.reason else "")
            + ")"
        )
        if record.views_used:
            sizes = ", ".join(
                f"{name}({record.view_sizes.get(name, '?')})"
                for name in record.views_used
            )
            print(f"views: {sizes}")
    print(f"result: {answer.result.result_size} pairs on epoch {answer.epoch}")
    if traces:
        print(format_span_tree(traces[0]))
    return 0


def _cmd_stats(args) -> int:
    from repro.graph.io import read_graph
    from repro.graph.stats import graph_stats
    from repro.views.io import read_viewset

    try:
        graph = read_graph(args.graph)
        views = read_viewset(args.views) if args.views else None
    except (OSError, ValueError) as err:
        return _error(err)
    stats = graph_stats(graph)
    if views is not None:
        views.materialize(graph)
    if args.format == "json":
        index = graph.label_index_stats()
        snapshot = graph.freeze()  # the one the views were materialized on
        store = snapshot.flat_store
        memory = {"backend": store.backend, "graph": _store_row(store)}
        payload = {
            "graph": {
                "nodes": stats.num_nodes,
                "edges": stats.num_edges,
                "size": stats.size,
                "max_out_degree": stats.max_out_degree,
                "max_in_degree": stats.max_in_degree,
                "avg_out_degree": stats.avg_out_degree,
            },
            "label_histogram": dict(
                sorted(stats.label_counts.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "label_index": {
                "labels": len(index),
                "indexed_nodes": sum(index.values()),
                "largest_bucket": (
                    max(index.items(), key=lambda kv: kv[1])[0] if index else None
                ),
            },
            "snapshot": {
                "version": snapshot.snapshot_version,
                "token": snapshot.snapshot_token,
                "nodes": snapshot.num_nodes,
                "edges": snapshot.num_edges,
            },
            "memory": memory,
        }
        if views is not None:
            from repro.views.selection import selection_stats

            payload["selection"] = selection_stats(views)
            payload["views"] = {
                "cardinality": views.cardinality,
                "materialized": [
                    n for n in views.names() if views.is_materialized(n)
                ],
                "definition_size": views.definition_size,
                "extension_size": views.extension_size,
                "extension_fraction": views.extension_fraction(graph),
                "snapshot_token": views.snapshot_token,
            }
            # Per-view flat-buffer footprint: the bytes one extension
            # occupies once packed into a segment.
            memory["views"] = {
                name: _store_row(views.extension(name).compact.store)
                for name in views.names()
            }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(f"nodes: {stats.num_nodes}  edges: {stats.num_edges}  |G|: {stats.size}")
    print(f"max out-degree: {stats.max_out_degree}  "
          f"max in-degree: {stats.max_in_degree}  "
          f"avg out-degree: {stats.avg_out_degree:.2f}")
    top = sorted(stats.label_counts.items(), key=lambda kv: -kv[1])[:10]
    for label, count in top:
        print(f"  {label}: {count}")
    if views is not None:
        materialized = [n for n in views.names() if views.is_materialized(n)]
        print(f"views: {views.cardinality} ({len(materialized)} materialized, "
              f"extension fraction {views.extension_fraction(graph):.1%})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Answering graph pattern queries using views"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset stand-in")
    p.add_argument("--dataset", choices=_DATASETS, required=True)
    p.add_argument("--nodes", type=int, default=10_000)
    p.add_argument("--edges", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--views", help="also write the dataset's view suite here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("contain", help="check pattern containment")
    p.add_argument("--query", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="all")
    p.set_defaults(func=_cmd_contain)

    p = sub.add_parser(
        "query", help="answer queries with the planned, cached engine"
    )
    p.add_argument("--query", nargs="+", required=True,
                   help="one or more pattern JSON files")
    p.add_argument("--views", required=True)
    p.add_argument("--graph", required=True,
                   help="the data graph: views materialize on its snapshot, "
                   "a query they cannot answer runs on it directly")
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--repeat", type=int, default=1,
                   help="re-run the batch N times (shows warm-cache hits)")
    p.add_argument("--explain", action="store_true",
                   help="print query plans instead of executing")
    p.add_argument("--out", help="write one query's result table as JSON")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "maintain",
        help="replay an edge update stream through the delta pipeline",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--updates", required=True,
                   help="update stream file: '+ u v' / '- u v' per line")
    p.add_argument("--batch", type=int, default=50,
                   help="ops per maintenance delta (default 50)")
    p.add_argument("--verify", action="store_true",
                   help="assert maintained extensions equal a fresh "
                        "rematerialization after every batch")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_maintain)

    p = sub.add_parser(
        "serve",
        help="run the long-running async query service (JSON over TCP)",
    )
    p.add_argument("--graph")
    p.add_argument("--views")
    p.add_argument("--snapshot", metavar="DIR",
                   help="boot from a persistent snapshot directory "
                        "(mmap attach, no rebuild) instead of "
                        "--graph/--views")
    p.add_argument("--persist", nargs="?", const="", metavar="DIR",
                   help="persist each published epoch snapshot to DIR "
                        "(bare flag: back into --snapshot's directory)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7677,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="concurrent evaluations (reader pool width)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admitted requests allowed to wait; beyond "
                        "max-inflight + max-queue, requests are shed "
                        "with a retriable error")
    p.add_argument("--metrics-port", type=int,
                   help="also expose a Prometheus-style /metrics "
                        "endpoint on this port (0 picks one)")
    p.add_argument("--log-level",
                   choices=("debug", "info", "warning", "error"),
                   default="info",
                   help="structured stderr logging level")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="answer one query through the server and print its span tree",
    )
    p.add_argument("--query", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("stats", help="graph / view-cache statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--views")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="json adds the label histogram and snapshot/"
                        "label-index statistics")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "ingest",
        help="stream an edge list into a sharded on-disk snapshot "
             "(out-of-core: bounded memory regardless of graph size)",
    )
    p.add_argument("--edges", required=True,
                   help="edge-list file (SNAP format: 'src<tab>dst' "
                        "lines, '#' comments)")
    p.add_argument("--out", required=True,
                   help="snapshot directory to create")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--labels", type=int, metavar="K",
                   help="assign each node a deterministic hash label "
                        "l0..l<K-1> (views need labelled nodes)")
    p.add_argument("--budget-mb", type=int, default=64,
                   help="in-memory spill-buffer budget in MiB "
                        "(default 64)")
    p.add_argument("--max-edges", type=int, default=0,
                   help="abort if the stream exceeds N edges (guard "
                        "against ingesting the wrong file)")
    p.add_argument("--overwrite", action="store_true",
                   help="replace an existing snapshot atomically")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "snapshot",
        help="save / load / inspect persistent mmap snapshot directories",
    )
    snap = p.add_subparsers(dest="snapshot_command", required=True)

    s = snap.add_parser("save", help="persist a graph (and views) to disk")
    s.add_argument("--graph", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--views",
                   help="also persist this view catalog (materialized "
                        "first if needed)")
    s.add_argument("--overwrite", action="store_true")
    s.set_defaults(func=_cmd_snapshot_save)

    s = snap.add_parser(
        "load", help="reattach a snapshot via mmap and report (no rebuild)"
    )
    s.add_argument("path", help="snapshot directory")
    s.add_argument("--verify", action="store_true",
                   help="CRC every segment payload")
    s.add_argument("--query",
                   help="answer this pattern query from the reloaded "
                        "snapshot's cached views")
    s.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    s.set_defaults(func=_cmd_snapshot_load)

    s = snap.add_parser(
        "info", help="print manifest, per-file and per-table sizes"
    )
    s.add_argument("path", help="snapshot directory")
    s.add_argument("--verify", action="store_true",
                   help="CRC every segment payload")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=_cmd_snapshot_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
