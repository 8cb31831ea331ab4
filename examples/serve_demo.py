"""Serving pattern queries while the graph keeps changing.

The batch pipeline (``examples/view_maintenance.py``) assumes one
driver: apply a delta, then query.  A service has neither luxury --
queries arrive *while* maintenance runs, and identical queries arrive
together.  This example runs the serving layer in-process:

* a :class:`~repro.serve.QueryServer` wraps a maintenance-attached
  :class:`~repro.engine.QueryEngine`; readers evaluate against
  immutable *epoch* snapshots and never block on maintenance;
* an update task streams :class:`~repro.views.Delta` batches; each one
  builds epoch N+1 on a maintenance thread while in-flight readers
  drain on epoch N (watch ``swaps`` / ``drained`` climb);
* reader tasks hammer a small query mix concurrently -- identical
  in-flight queries *coalesce* into one evaluation, repeats hit the
  served-answer cache (watch ``coalesced`` / ``cache_hits``);
* every answer is stamped with the epoch it was served from, and the
  example re-checks a sample of answers against direct evaluation on
  that epoch's snapshot.

Run:  python examples/serve_demo.py
"""

import asyncio
import random

from repro import DataGraph, Pattern, ViewDefinition, match
from repro.engine import QueryEngine
from repro.serve import QueryServer
from repro.views import Delta, ViewSet
from repro.views.maintenance import IncrementalViewSet


def build_graph(num_nodes: int = 600, num_edges: int = 2_400, seed: int = 11):
    rng = random.Random(seed)
    roles = ("user", "creator", "curator")
    g = DataGraph()
    for node in range(num_nodes):
        g.add_node(node, labels=roles[rng.randrange(3)])
    added = 0
    while added < num_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
            added += 1
    return g, rng


def two_hop(name: str, first: str, second: str, third: str) -> ViewDefinition:
    p = Pattern()
    p.add_node("a", first)
    p.add_node("b", second)
    p.add_node("c", third)
    p.add_edge("a", "b")
    p.add_edge("b", "c")
    return ViewDefinition(name, p)


def edge_query(src: str, dst: str) -> Pattern:
    p = Pattern()
    p.add_node("x", src)
    p.add_node("y", dst)
    p.add_edge("x", "y")
    return p


async def main() -> None:
    graph, rng = build_graph()
    definitions = [
        two_hop("uc2", "user", "creator", "curator"),
        two_hop("cu2", "curator", "user", "creator"),
    ]
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)

    queries = [
        edge_query("user", "creator"),
        edge_query("creator", "curator"),
        edge_query("curator", "user"),
    ]

    async with QueryServer(engine, max_inflight=4, max_queue=32) as server:
        sampled = []

        async def reader(rounds: int) -> None:
            for _ in range(rounds):
                pattern = rng.choice(queries)
                answer = await server.query(pattern)
                sampled.append((pattern, answer))
                await asyncio.sleep(0)

        async def updater(batches: int) -> None:
            # The tracker never changes ``graph``: each batch patches its
            # snapshot into the next one (the graph the engine serves),
            # so probe that for edge existence.
            nodes = list(range(graph.num_nodes))
            for _ in range(batches):
                live = tracker.graph
                delta = Delta()
                for _ in range(12):
                    a, b = rng.sample(nodes, 2)
                    if live.has_edge(a, b):
                        delta.delete(a, b)
                    else:
                        delta.insert(a, b)
                outcome = await server.update(delta)
                print(
                    f"epoch {outcome.epoch}: applied {outcome.report.applied} "
                    f"ops, changed views: "
                    f"{', '.join(outcome.report.changed_views) or '(none)'}"
                )
                await asyncio.sleep(0)

        await asyncio.gather(*(reader(40) for _ in range(6)), updater(8))

        stats = server.stats()
        print("\nepochs :", stats["epoch"])
        req = stats["requests"]
        print(
            "readers:", req["completed"], "completed,",
            req["coalesced"], "coalesced,",
            req["cache_hits"], "cache hits,",
            req["evaluated"], "evaluated,",
            req["shed"], "shed",
        )

        # Spot-check: answers served from the final epoch must equal
        # direct evaluation on the maintained graph (earlier epochs'
        # snapshots are superseded -- the property test covers those).
        final = server.current_epoch
        checked = 0
        for pattern, answer in sampled:
            if answer.epoch != final:
                continue
            expected = match(pattern, tracker.graph)
            assert answer.result.edge_matches == expected.edge_matches
            checked += 1
        print(
            f"spot-checked {checked}/{len(sampled)} answers "
            f"(those served from the final epoch {final}) "
            "against direct evaluation"
        )

    print("server drained and closed cleanly")


if __name__ == "__main__":
    asyncio.run(main())
