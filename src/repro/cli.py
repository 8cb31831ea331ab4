"""Command-line interface: the view-cache workflow end to end.

Subcommands::

    python -m repro generate  --dataset amazon --nodes 10000 --edges 30000 \
                              --out graph.json [--views views.json]
    python -m repro materialize --graph graph.json --views views.json
    python -m repro contain   --query query.json --views views.json [--strategy minimum]
    python -m repro query     --query query.json --views views.json \
                              [--graph graph.json] [--strategy minimal]
    python -m repro engine    --queries q1.json q2.json --views views.json \
                              [--graph graph.json] [--executor process] \
                              [--planner adaptive] [--workers 4] \
                              [--repeat 2] [--explain]
    python -m repro advise    --queries q1.json q2.json --views views.json \
                              --graph graph.json [--repeat 3] \
                              [--budget-fraction 0.15] [--apply] \
                              [--format json]
    python -m repro shard     --graph graph.json --shards 4 \
                              [--strategy hash|label|bfs] [--format json]
    python -m repro maintain  --graph graph.json --views views.json \
                              --updates stream.txt [--batch 50] \
                              [--budget N] [--verify] [--format json]
    python -m repro serve     --graph graph.json --views views.json \
                              [--host 127.0.0.1] [--port 7677] \
                              [--strategy minimal] [--budget N] \
                              [--planner adaptive] \
                              [--auto-materialize 0.15] \
                              [--advise-interval 30] \
                              [--max-inflight 8] [--max-queue 64] \
                              [--metrics-port 9090] [--log-level info]
    python -m repro trace     --query query.json --views views.json \
                              --graph graph.json [--format json]
    python -m repro stats     --graph graph.json [--views views.json] \
                              [--shards 4] [--partitioner hash] \
                              [--format json]
    python -m repro stats     --snapshot snapdir [--format json]
    python -m repro ingest    --edges edges.txt --out snapdir \
                              [--shards 4] [--labels 10] [--budget-mb 64] \
                              [--max-edges N] [--overwrite] [--format json]
    python -m repro snapshot  save --graph graph.json --out snapdir \
                              [--views views.json] [--shards N] \
                              [--partitioner hash] [--overwrite]
    python -m repro snapshot  load snapdir [--verify] [--query query.json]
    python -m repro snapshot  info snapdir [--verify] [--format json]

``generate`` writes a dataset stand-in (and optionally its standard view
suite); ``materialize`` caches extensions into the views file;
``contain`` reports containment / view selection; ``query`` answers the
query from the cached extensions (exactly the MatchJoin pipeline --
pass ``--graph`` only if extensions still need materializing);
``engine`` batch-answers many queries through the planned/cached
:class:`~repro.engine.engine.QueryEngine` (``--repeat`` demonstrates
the warm answer cache, ``--explain`` prints plans without executing,
``--planner adaptive`` engages the cost-based planner); ``advise``
replays a workload through the adaptive engine and reports which views
the :class:`~repro.engine.advisor.WorkloadAdvisor` would materialize
or evict under the byte budget (``--apply`` actually does it);
``shard`` partitions the graph and reports cut quality and per-shard
size/label histograms for each strategy; ``maintain`` replays an edge
update stream (``+ u v`` / ``- u v`` lines) through the delta-driven
maintenance pipeline in batches, reporting per-layer refresh statistics
-- per-view incremental/recompute/irrelevant counts, snapshot
refresh-vs-rebuild counts, and how many batches left each view's
cached answers retainable (``--verify`` additionally asserts every
checkpoint against a from-scratch rematerialization); ``serve`` runs
the long-running asyncio service (:mod:`repro.serve`): concurrent
readers over immutable epoch snapshots, epoch swap on maintenance,
request coalescing and admission control, speaking newline-delimited
JSON over TCP (``{"op": "query"|"update"|"stats"|"metrics"|"slowlog"|
"traces"|"plans"|"ping", ...}``, see :mod:`repro.serve.protocol`),
optionally exposing a Prometheus-style ``/metrics`` endpoint
(``--metrics-port``) and structured stderr logging (``--log-level``);
``trace`` answers one query through an in-process server and prints the
request's span tree -- plan, cache lookup, evaluation, per-task kernel
work -- plus the planner's plan-choice record (``--format json`` emits
both machine-readably); ``stats`` prints
size accounting -- with ``--format json`` it emits a machine-readable report
including the label histogram and the snapshot / label-index statistics
of the compact graph backend (each flat segment labelled with its
``backend`` kind and on-disk byte count), a ``selection`` section
(per-view size / staleness / maintenance-cost rows, the advisor's
scoring input) when ``--views`` is passed, plus a ``partition`` section
when ``--shards N`` is passed; with ``--snapshot DIR`` it instead
inspects a persistent snapshot directory without rebuilding anything.

The out-of-core workflow (:mod:`repro.graph.snapshot` /
:mod:`repro.graph.ingest`): ``ingest`` streams an edge list (SNAP
format) of any size into a sharded on-disk snapshot directory, spilling
shard-partitioned runs to disk under a byte budget and building one
shard at a time so peak memory stays flat; ``snapshot save`` persists
an in-memory graph (optionally sharded, optionally with its view
catalog) as versioned, checksummed segment files; ``snapshot load``
reattaches a directory via read-only ``mmap`` -- no rebuild -- and can
answer a query straight off the cached view packs; ``snapshot info``
prints the manifest and per-file accounting (``--verify`` runs a full
payload CRC audit).  ``serve --snapshot DIR`` boots the service from
such a directory, and ``serve --persist [DIR]`` writes each published
epoch back out, so a restart resumes from the latest maintained state.
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


def _cmd_materialize(args) -> int:
    from repro.graph.io import read_graph
    from repro.views.io import read_viewset, write_viewset

    graph = read_graph(args.graph)
    views = read_viewset(args.views)
    views.materialize(graph)
    write_viewset(views, args.views)
    fraction = views.extension_fraction(graph)
    print(
        f"materialized {views.cardinality} views "
        f"({views.extension_size} items, {fraction:.1%} of |G|)"
    )
    return 0


def _cmd_contain(args) -> int:
    from repro.core.containment import selector
    from repro.graph.io import read_pattern
    from repro.graph.pattern import BoundedPattern
    from repro.views.io import read_viewset

    query = read_pattern(args.query)
    views = read_viewset(args.views)
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
    from repro.core.answer import answer_with_views
    from repro.errors import NotContainedError
    from repro.graph.io import read_graph, read_pattern
    from repro.views.io import read_viewset

    query = read_pattern(args.query)
    views = read_viewset(args.views)
    graph = read_graph(args.graph) if args.graph else None
    try:
        answer = answer_with_views(
            query, views, graph=graph, selection=args.strategy
        )
    except NotContainedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"views used: {', '.join(answer.views_used)}")
    print(f"result pairs: {answer.result.result_size}")
    print(answer.result.pretty())
    if args.out:
        rows = {
            f"{edge[0]}->{edge[1]}": sorted(map(list, pairs))
            for edge, pairs in answer.result.edge_matches.items()
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, default=str)
        print(f"result written to {args.out}")
    return 0


def _cmd_engine(args) -> int:
    from repro.engine import QueryEngine
    from repro.errors import NotContainedError
    from repro.graph.io import read_graph, read_pattern
    from repro.views.io import read_viewset

    try:
        queries = [read_pattern(path) for path in args.queries]
        views = read_viewset(args.views)
        graph = read_graph(args.graph) if args.graph else None
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        engine = QueryEngine(
            views,
            graph=graph,
            selection=args.strategy,
            executor=args.executor,
            workers=args.workers,
            planner=args.planner,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.explain:
        for path, query in zip(args.queries, queries):
            print(f"-- {path}")
            print(engine.plan(query).explain())
        return 0
    for round_index in range(args.repeat):
        try:
            results = engine.answer_batch(queries)
        except NotContainedError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        total = sum(r.stats.elapsed for r in results)
        label = "cold" if round_index == 0 else f"warm #{round_index}"
        print(f"[{label}] {len(results)} queries in {total * 1e3:.2f} ms")
        for path, result in zip(args.queries, results):
            stats = result.stats
            provenance = "cache" if stats.cache_hit else stats.strategy
            print(
                f"  {path}: {result.result_size} pairs via {provenance} "
                f"({stats.elapsed * 1e3:.2f} ms)"
            )
    caches = engine.cache_stats()
    for which, counters in caches.items():
        print(
            f"{which} cache: {counters['hits']} hits / "
            f"{counters['misses']} misses"
        )
    return 0


def _cmd_advise(args) -> int:
    """Replay a workload through the adaptive engine, then report (or
    apply) the advisor's materialize/evict plan for the byte budget."""
    from repro.engine import QueryEngine
    from repro.engine.advisor import WorkloadAdvisor
    from repro.graph.io import read_graph, read_pattern
    from repro.views.io import read_viewset, write_viewset

    try:
        queries = [read_pattern(path) for path in args.queries]
        views = read_viewset(args.views)
        graph = read_graph(args.graph)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    engine = QueryEngine(
        views, graph=graph, selection=args.strategy, planner="adaptive"
    )
    advisor = WorkloadAdvisor(
        engine,
        budget_fraction=args.budget_fraction,
        budget_bytes=args.budget_bytes,
    )
    for _ in range(max(1, args.repeat)):
        for query in queries:
            engine.answer(query)
    report = advisor.tick() if args.apply else advisor.advise()
    if args.apply and args.out:
        write_viewset(views, args.out)
    if args.format == "json":
        payload = dict(
            report.to_dict(), cost_model=engine.cost_model.snapshot()
        )
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    budget_share = (
        report.budget_bytes / report.graph_bytes if report.graph_bytes else 0.0
    )
    print(
        f"workload: {len(queries)} queries x {max(1, args.repeat)} rounds; "
        f"budget {report.budget_bytes} bytes "
        f"({budget_share:.1%} of {report.graph_bytes}-byte graph)"
    )
    markers = {"materialize": "+", "evict": "-", "keep": "=", "none": " "}
    for score in report.scores:
        state = "materialized" if score.materialized else "cold"
        print(
            f"  {markers[score.action]} {score.name}: "
            f"score={score.score:.3g} hits={score.hits} "
            f"benefit={score.benefit * 1e3:.2f}ms "
            f"bytes={score.bytes} maint={score.maintenance_cost:.0f} "
            f"[{state}]"
        )
    verb = "applied" if report.applied else "plan"
    print(
        f"{verb}: materialize {report.materialized or 'nothing'}, "
        f"evict {report.evicted or 'nothing'}; "
        f"cache {report.used_bytes} bytes "
        f"({report.budget_fraction_used:.1%} of budget)"
        + ("" if report.applied else "  (use --apply to execute)")
    )
    return 0


def _cmd_shard(args) -> int:
    from repro.graph.io import read_graph
    from repro.shard import ShardedGraph, make_partition

    graph = read_graph(args.graph)
    partition = make_partition(graph, args.shards, args.strategy)
    sharded = ShardedGraph(graph, partition)
    per_shard = []
    for i in range(partition.num_shards):
        snapshot = sharded.shard(i)
        own = sharded.own_count(i)
        histogram: dict = {}
        for local_id in range(own):
            for label in snapshot.labels_of(local_id):
                histogram[label] = histogram.get(label, 0) + 1
        per_shard.append(
            {
                "nodes": own,
                "edges": snapshot.num_edges,
                "ghosts": len(sharded.ghost_ids(i)),
                "labels": dict(
                    sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
                ),
            }
        )
    if args.format == "json":
        payload = {"partition": partition.stats(), "per_shard": per_shard}
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(
        f"{partition.strategy} partition: {partition.num_shards} shards, "
        f"cut {partition.edge_cut}/{graph.num_edges} edges "
        f"({partition.edge_cut_fraction:.1%}), "
        f"{len(partition.boundary_nodes)} boundary nodes, "
        f"balance {partition.balance:.2f}"
    )
    for i, row in enumerate(per_shard):
        top = ", ".join(
            f"{label}:{count}" for label, count in list(row["labels"].items())[:5]
        )
        print(
            f"  shard {i}: {row['nodes']} nodes, {row['edges']} edges "
            f"({row['ghosts']} ghosts)  {top}"
        )
    return 0


def _cmd_maintain(args) -> int:
    import warnings

    from repro.graph.io import read_graph
    from repro.views.io import read_viewset
    from repro.views.maintenance import Delta
    from repro.views.view import materialize as _materialize

    graph = read_graph(args.graph)
    views = read_viewset(args.views)
    try:
        with open(args.updates, encoding="utf-8") as handle:
            delta = Delta.parse(handle)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with warnings.catch_warnings():
        # The skipped-bounded warning is surfaced in the report instead.
        warnings.simplefilter("ignore", UserWarning)
        tracker = views.track(graph, budget=args.budget)
    # Engage the snapshot layer so the report can show refresh-vs-
    # rebuild behaviour of the frozen graph under the same stream.
    previous = tracker.graph.freeze()
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
        report = views.apply_delta(batch)
        applied += report.applied
        skipped += report.skipped
        stale_bounded.update(report.stale_bounded)
        for name in tracker.names():
            if name not in report.changed_views:
                retained_batches[name] += 1
        refreshed = tracker.graph.freeze()
        if refreshed is not previous:
            if refreshed.extends_token == previous.snapshot_token:
                snapshot_refreshes += 1
            else:
                snapshot_rebuilds += 1
            previous = refreshed
        if args.verify:
            for name in tracker.names():
                fresh = _materialize(tracker.definition(name), tracker.graph)
                if tracker.extension(name).edge_matches != fresh.edge_matches:
                    print(
                        f"error: view {name!r} diverged from "
                        "rematerialization",
                        file=sys.stderr,
                    )
                    return 1
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
        print(f"error: {err}", file=sys.stderr)
        return 1
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
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    target = graph
    if args.shards:
        from repro.shard import ShardedGraph, make_partition

        target = ShardedGraph(
            graph, make_partition(graph, args.shards, args.partitioner)
        )
    if views is not None:
        views.materialize(graph)
    try:
        manifest = SnapshotStore.save(
            args.out, target, views=views, overwrite=args.overwrite
        )
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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
        print(f"error: {err}", file=sys.stderr)
        return 1
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
        print(f"error: {err}", file=sys.stderr)
        return 1
    engine = QueryEngine(snapshot_path=loaded, selection=args.strategy)
    try:
        result = engine.answer(query)
    except NotContainedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(
        f"query: {result.result_size} pairs via {result.stats.strategy} "
        f"({result.stats.elapsed * 1e3:.2f} ms, no rebuild)"
    )
    return 0


def _cmd_snapshot_info(args) -> int:
    from repro.graph.snapshot import SnapshotStore

    try:
        info = SnapshotStore.info(args.path, verify=args.verify)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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
        marker = "  [crc ok]" if name in info["verified_segments"] else ""
        rows = info["boundary"].get(name)
        detail = (
            f"  [boundary rows: {rows['rows']} global ids, "
            f"{rows['bridge_pairs']} bridge pairs]"
            if rows
            else ""
        )
        print(f"  {name}: {size} bytes{detail}{marker}")
    print(f"total on disk: {info['on_disk_bytes']} bytes")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.engine import QueryEngine
    from repro.graph.io import read_graph
    from repro.obs.logsetup import install as install_logging
    from repro.serve import MetricsServer, QueryServer, serve_tcp
    from repro.views.io import read_viewset
    from repro.views.maintenance import IncrementalViewSet

    install_logging(args.log_level)
    if args.snapshot is not None and (args.graph or args.views):
        print(
            "error: --snapshot conflicts with --graph/--views",
            file=sys.stderr,
        )
        return 1
    if args.snapshot is None and not (args.graph and args.views):
        print(
            "error: serve needs either --snapshot DIR or both --graph "
            "and --views",
            file=sys.stderr,
        )
        return 1
    persist = args.persist
    if persist == "":
        if args.snapshot is None:
            print(
                "error: bare --persist (no directory) requires --snapshot",
                file=sys.stderr,
            )
            return 1
        persist = args.snapshot
    try:
        if args.snapshot is not None:
            from repro.graph.snapshot import SnapshotStore

            loaded = SnapshotStore.load(args.snapshot)
            graph = loaded.graph
            views = loaded.viewset()
            engine = QueryEngine(
                views,
                snapshot_path=loaded,
                selection=args.strategy,
                planner=args.planner,
                auto_materialize=args.auto_materialize,
            )
        else:
            graph = read_graph(args.graph)
            views = read_viewset(args.views)
            tracker = IncrementalViewSet(
                views.definitions(), graph, budget=args.budget
            )
            if tracker.skipped_bounded:
                print(
                    "note: bounded views are rematerialized per epoch, not "
                    "incrementally maintained: "
                    + ", ".join(tracker.skipped_bounded),
                    file=sys.stderr,
                )
            engine = QueryEngine(
                views,
                graph=graph,
                selection=args.strategy,
                planner=args.planner,
                auto_materialize=args.auto_materialize,
            )
            engine.attach_maintenance(tracker)
        server = QueryServer(
            engine,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            advise_interval=args.advise_interval,
            persist_path=persist,
        )
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    engine = QueryEngine(views, graph=graph, selection=args.strategy)
    server = QueryServer(engine)

    async def run():
        async with server:
            return await server.query(query)

    try:
        answer = asyncio.run(run())
    except NotContainedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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


def _snapshot_stats(args) -> int:
    """Inspect a persistent snapshot directory: backend kinds and byte
    accounting per attached segment, without rebuilding anything."""
    import os

    from repro.graph.snapshot import SnapshotStore

    try:
        loaded = SnapshotStore.load(args.snapshot)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    graph = loaded.graph
    shards = getattr(graph, "num_shards", None)
    segments = {}
    if shards is not None:
        for i in range(shards):
            store = graph.shard(i).flat_store
            segments[f"shard-{i:03d}"] = {
                "backend": store.backend,
                "tables": store.table_bytes(),
                "total_bytes": store.total_bytes,
                "on_disk_bytes": store.on_disk_bytes,
            }
    else:
        store = graph.flat_store
        segments["graph"] = {
            "backend": store.backend,
            "tables": store.table_bytes(),
            "total_bytes": store.total_bytes,
            "on_disk_bytes": store.on_disk_bytes,
        }
    for name, view in loaded.views.items():
        packed = getattr(view, "compact", None)
        vstore = getattr(packed, "store", None)
        if vstore is None:
            continue
        segments[f"view:{name}"] = {
            "backend": vstore.backend,
            "tables": vstore.table_bytes(),
            "total_bytes": vstore.total_bytes,
            "on_disk_bytes": vstore.on_disk_bytes,
        }
    files = {
        name: os.path.getsize(os.path.join(loaded.path, name))
        for name in sorted(os.listdir(loaded.path))
        if os.path.isfile(os.path.join(loaded.path, name))
    }
    meta = loaded.manifest.get("graph", {})
    if args.format == "json":
        payload = {
            "snapshot": {
                "path": loaded.path,
                "kind": loaded.manifest.get("kind"),
                "format": loaded.manifest.get("format"),
                "graph": meta,
                "shards": shards,
                "views": sorted(loaded.views),
            },
            "memory": {
                "backend": "file",
                "segments": segments,
                "on_disk_bytes": sum(files.values()),
                "files": files,
            },
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(
        f"{loaded.manifest.get('kind')} snapshot at {loaded.path}: "
        f"{meta.get('nodes')} nodes / {meta.get('edges')} edges, "
        f"{len(loaded.views)} views, "
        f"{sum(files.values())} bytes on disk"
    )
    for name, row in segments.items():
        print(
            f"  {name}: backend={row['backend']} "
            f"{row['total_bytes']} bytes mapped, "
            f"{row['on_disk_bytes']} on disk"
        )
    return 0


def _cmd_stats(args) -> int:
    if args.snapshot:
        return _snapshot_stats(args)
    if not args.graph:
        print("error: stats needs --graph (or --snapshot DIR)",
              file=sys.stderr)
        return 1
    from repro.graph.io import read_graph
    from repro.graph.stats import graph_stats
    from repro.views.io import read_viewset

    graph = read_graph(args.graph)
    stats = graph_stats(graph)
    views = read_viewset(args.views) if args.views else None
    partition = None
    if args.shards:
        from repro.shard import make_partition

        partition = make_partition(graph, args.shards, args.partitioner)
    if args.format == "json":
        from repro.graph.flatbuf import SharedCompactGraph
        from repro.views.flatpack import FlatExtension

        index = graph.label_index_stats()
        snapshot = graph.freeze()
        flat = SharedCompactGraph.share(snapshot)
        memory = {
            "backend": flat.flat_store.backend,
            "graph": {
                "backend": flat.flat_store.backend,
                "tables": flat.flat_table_bytes(),
                "total_bytes": flat.flat_store.total_bytes,
                "on_disk_bytes": flat.flat_store.on_disk_bytes,
            },
        }
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
        if partition is not None:
            payload["partition"] = partition.stats()
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
            # occupies once packed for zero-copy shipping.  Extensions
            # loaded from disk carry no id-space payload, so those are
            # re-materialized against the shared snapshot to measure.
            from repro.views.view import materialize as _materialize

            view_memory = {}
            for name in views.names():
                if not views.is_materialized(name):
                    continue
                packed = views.extension(name).compact
                if packed is None:
                    packed = _materialize(views.definition(name), flat).compact
                elif packed.store is None:
                    packed = FlatExtension.pack(flat, packed)
                view_memory[name] = {
                    "backend": packed.store.backend,
                    "tables": packed.store.table_bytes(),
                    "total_bytes": packed.store.total_bytes,
                    "on_disk_bytes": packed.store.on_disk_bytes,
                }
            memory["views"] = view_memory
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
    if partition is not None:
        print(
            f"partition ({partition.strategy}): {partition.num_shards} shards "
            f"{partition.shard_sizes}, edge cut {partition.edge_cut_fraction:.1%}"
        )
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

    p = sub.add_parser("materialize", help="materialize view extensions")
    p.add_argument("--graph", required=True)
    p.add_argument("--views", required=True)
    p.set_defaults(func=_cmd_materialize)

    p = sub.add_parser("contain", help="check pattern containment")
    p.add_argument("--query", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="all")
    p.set_defaults(func=_cmd_contain)

    p = sub.add_parser("query", help="answer a query from cached views")
    p.add_argument("--query", required=True)
    p.add_argument("--views", required=True)
    p.add_argument("--graph", help="graph for materialize-on-demand")
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--out", help="write the result table as JSON")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "engine", help="batch-answer queries with the planned/cached engine"
    )
    p.add_argument("--queries", nargs="+", required=True,
                   help="one or more pattern JSON files")
    p.add_argument("--views", required=True)
    p.add_argument("--graph",
                   help="graph for materialize-on-demand and direct fallback")
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--executor", choices=("serial", "process"),
                   default="serial")
    p.add_argument("--planner",
                   choices=("fixed", "adaptive", "direct", "hybrid"),
                   default="fixed",
                   help="plan selection: fixed rule, cost-based adaptive, "
                        "or a forced baseline (direct/hybrid need --graph)")
    p.add_argument("--workers", type=int)
    p.add_argument("--repeat", type=int, default=1,
                   help="re-run the batch N times (shows warm-cache hits)")
    p.add_argument("--explain", action="store_true",
                   help="print query plans instead of executing")
    p.set_defaults(func=_cmd_engine)

    p = sub.add_parser(
        "advise",
        help="score views against a workload and plan auto-materialization",
    )
    p.add_argument("--queries", nargs="+", required=True,
                   help="the workload: one or more pattern JSON files")
    p.add_argument("--views", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", choices=_SELECTIONS,
                   default="minimal")
    p.add_argument("--repeat", type=int, default=1,
                   help="replay the workload N times (weights frequency)")
    p.add_argument("--budget-fraction", type=float, default=0.15,
                   help="extension-cache budget as a fraction of graph "
                        "bytes (default 0.15, the paper's upper bound)")
    p.add_argument("--budget-bytes", type=int,
                   help="absolute byte budget (overrides --budget-fraction)")
    p.add_argument("--apply", action="store_true",
                   help="actually materialize/evict instead of reporting")
    p.add_argument("--out",
                   help="with --apply: write the updated views file here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "shard", help="partition the graph and report cut quality"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--shards", type=int, required=True,
                   help="number of shards (>= 1)")
    p.add_argument("--strategy", choices=("hash", "label", "bfs"),
                   default="hash")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_shard)

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
    p.add_argument("--budget", type=int,
                   help="affected-area budget before an insertion falls "
                        "back to recomputation (default: never)")
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
    p.add_argument("--budget", type=int,
                   help="maintenance affected-area budget (default: never "
                        "fall back to recomputation)")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="concurrent evaluations (reader pool width)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admitted requests allowed to wait; beyond "
                        "max-inflight + max-queue, requests are shed "
                        "with a retriable error")
    p.add_argument("--planner",
                   choices=("fixed", "adaptive", "direct", "hybrid"),
                   default="fixed",
                   help="plan selection mode for the serving engine")
    p.add_argument("--auto-materialize", type=float, nargs="?",
                   const=0.15, default=None, metavar="FRACTION",
                   help="enable the workload advisor with this budget "
                        "fraction of graph bytes (bare flag: 0.15)")
    p.add_argument("--advise-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="run periodic epoch-publishing advisor ticks "
                        "(requires --auto-materialize)")
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
    p.add_argument("--graph")
    p.add_argument("--views")
    p.add_argument("--snapshot", metavar="DIR",
                   help="inspect a persistent snapshot directory instead "
                        "of --graph: per-segment backend kinds, mapped "
                        "and on-disk byte accounting")
    p.add_argument("--shards", type=int,
                   help="also partition into N shards and report shard "
                        "sizes and edge-cut fraction")
    p.add_argument("--partitioner", choices=("hash", "label", "bfs"),
                   default="hash",
                   help="strategy for --shards")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="json adds the label histogram, snapshot/"
                        "label-index statistics and (with --shards) a "
                        "partition section")
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
    s.add_argument("--shards", type=int,
                   help="partition before saving (per-shard segment "
                        "files)")
    s.add_argument("--partitioner", choices=("hash", "label", "bfs"),
                   default="hash")
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

    s = snap.add_parser("info", help="print manifest and per-file sizes")
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
