"""Property-based serving-layer concurrency (hypothesis).

The serving contract quantified over random graphs, view suites, query
mixes and maintenance streams: when queries and :class:`Delta` batches
interleave freely, **every answer equals direct evaluation on the graph
of the epoch it was served from**, and that epoch lies between the
current epoch at request start and at request completion.  No answer is
ever torn across epochs -- a reader racing an update is served from one
consistent generation, never a mixture -- and the reply bytes spliced
from the cached fragment decode to that same answer.

The per-epoch reference graphs are built by replaying the same delta
stream over copies of the base graph *before* serving starts, so the
oracle is independent of every engine/serving code path under test.
"""

import asyncio
import json
import random

from hypothesis import given, settings, strategies as st

from helpers import apply_ops, random_labeled_graph, random_pattern
from repro.engine import QueryEngine
from repro.serve import QueryServer
from repro.serve.wire import query_reply
from repro.simulation import match
from repro.views import Delta, ViewDefinition, ViewSet
from repro.views.maintenance import IncrementalViewSet

seeds = st.integers(min_value=0, max_value=10_000)


def make_workload(seed: int):
    """A random instance: base graph, view suite, query mix, deltas,
    and the per-epoch reference graphs ``graphs[i]`` = base + deltas
    ``1..i`` (skip semantics, same as the maintenance pipeline)."""
    rng = random.Random(seed)
    graph = random_labeled_graph(rng, rng.randint(8, 24), rng.randint(12, 60))
    definitions = [
        ViewDefinition(f"v{i}", random_pattern(rng, rng.randint(2, 4), rng.randint(1, 4)))
        for i in range(rng.randint(1, 3))
    ]
    queries = [
        random_pattern(rng, rng.randint(2, 4), rng.randint(1, 4))
        for _ in range(rng.randint(2, 4))
    ]
    num_nodes = len(graph)
    deltas = []
    for _ in range(rng.randint(2, 5)):
        delta = Delta()
        for _ in range(rng.randint(1, 6)):
            a = rng.randrange(num_nodes)
            b = rng.randrange(num_nodes)
            if rng.random() < 0.4:
                delta.delete(a, b)
            else:
                delta.insert(a, b)
        deltas.append(delta)
    graphs = [graph.copy()]
    for delta in deltas:
        reference = graphs[-1].copy()
        apply_ops(reference, delta)
        graphs.append(reference)
    return graph, definitions, queries, deltas, graphs


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_every_answer_is_consistent_with_some_bracketed_epoch(seed):
    graph, definitions, queries, deltas, graphs = make_workload(seed)
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)

    observations = []

    async def run():
        async with QueryServer(engine, max_inflight=4, max_queue=32) as server:
            async def reader(rng_seed):
                rng = random.Random(rng_seed)
                for _ in range(6):
                    pattern = rng.choice(queries)
                    started_on = server.current_epoch
                    answer = await server.query(pattern, wire=True)
                    finished_on = server.current_epoch
                    observations.append(
                        (pattern, answer, started_on, finished_on)
                    )
                    await asyncio.sleep(0)

            async def updater():
                for delta in deltas:
                    await server.update(delta)
                    await asyncio.sleep(0)

            await asyncio.gather(
                *(reader(seed * 31 + i) for i in range(3)), updater()
            )
            assert server.current_epoch == len(deltas)

    asyncio.run(run())

    assert observations
    for pattern, answer, started_on, finished_on in observations:
        # The serving contract: an answer names the epoch it pinned,
        # which is bracketed by the epochs observed around the await.
        assert started_on <= answer.epoch <= finished_on
        # Equality on the paper's Match result {(e, Se)} -- the same
        # comparison Theorem 1 is tested with (sink-node simulation
        # sets may legitimately differ between MatchJoin and direct).
        expected = match(pattern, graphs[answer.epoch])
        assert answer.result.edge_matches == expected.edge_matches, (
            seed,
            answer.epoch,
        )
        # What goes out on the wire is that same result, whichever
        # request encoded the fragment and however often it was reused.
        sent = json.loads(query_reply(answer))
        assert sent["epoch"] == answer.epoch
        assert sent["cache_hit"] is answer.cache_hit
        assert sent["coalesced"] is answer.coalesced
        assert {
            edge: {tuple(pair) for pair in pairs}
            for edge, pairs in sent["result"]["edge_matches"].items()
        } == {
            f"{edge[0]}->{edge[1]}": set(pairs)
            for edge, pairs in answer.result.edge_matches.items()
        }, (seed, answer.epoch)
