"""The sharded backend: partitioners, ShardedGraph, psim, materialization.

Covers the whole subsystem:

* every partitioner assigns every node exactly once and reports honest
  cut/balance statistics;
* ``ShardedGraph`` mirrors the ``DataGraph`` read API over original
  node keys (randomized equivalence, including cross-shard
  predecessors and BFS);
* the property-based equivalence suite -- for random graphs, patterns
  and *every* partitioner, partial-evaluation simulation,
  ``sharded_match``, materialized extensions and ``match_join`` answers
  are identical to the single-``CompactGraph`` results;
* executor variants (serial / process) agree;
* the ``QueryEngine`` shards mode plans, answers, caches and
  invalidates exactly like the single-snapshot engine.
"""

import random

import pytest

from helpers import (
    build_graph,
    build_pattern,
    matchjoin_metrics,
    random_labeled_graph,
    random_pattern,
)
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph import DataGraph, P
from repro.shard import (
    PARTITIONERS,
    Partition,
    ShardRunner,
    ShardedGraph,
    make_partition,
    materialize_view,
    parallel_materialize,
    partial_max_simulation,
    sharded_match,
)
from repro.simulation import bounded_match, dual_match, match
from repro.simulation.bounded import bounded_simulates
from repro.simulation.simulation import maximum_simulation
from repro.views.maintenance import IncrementalViewSet
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition

STRATEGIES = sorted(PARTITIONERS)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_node_assigned_exactly_once(self, strategy):
        rng = random.Random(3)
        for _ in range(10):
            g = random_labeled_graph(rng, rng.randint(1, 60), rng.randint(0, 150))
            k = rng.randint(1, 6)
            partition = make_partition(g, k, strategy)
            assert partition.num_shards == k
            seen = set()
            for i in range(k):
                shard_nodes = partition.nodes_of(i)
                assert seen.isdisjoint(shard_nodes)
                seen.update(shard_nodes)
                for node in shard_nodes:
                    assert partition.shard_of(node) == i
            assert seen == set(g.nodes())
            assert sum(partition.shard_sizes) == len(g)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cut_accounting(self, strategy):
        rng = random.Random(5)
        for _ in range(10):
            g = random_labeled_graph(rng, rng.randint(2, 50), rng.randint(1, 120))
            partition = make_partition(g, rng.randint(2, 5), strategy)
            cut = {
                (s, t)
                for s, t in g.edges()
                if partition.shard_of(s) != partition.shard_of(t)
            }
            assert set(partition.cross_edges) == cut
            assert partition.edge_cut == len(cut)
            assert 0.0 <= partition.edge_cut_fraction <= 1.0
            boundary = {t for _, t in cut}
            assert partition.boundary_nodes == boundary
            for i in range(partition.num_shards):
                assert partition.ghosts_of(i) == {
                    t for s, t in cut if partition.shard_of(s) == i
                }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, strategy):
        g = random_labeled_graph(random.Random(9), 40, 100)
        first = make_partition(g, 3, strategy)
        second = make_partition(g, 3, strategy)
        assert first.assignment == second.assignment

    def test_balance_of_structured_strategies(self):
        g = random_labeled_graph(random.Random(11), 80, 200)
        for strategy in ("label", "bfs"):
            partition = make_partition(g, 4, strategy)
            # Capacity-driven strategies stay within one block of ideal.
            assert max(partition.shard_sizes) <= -(-80 // 4) + 1

    def test_more_shards_than_nodes(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        for strategy in STRATEGIES:
            partition = make_partition(g, 5, strategy)
            assert sum(partition.shard_sizes) == 2
            sharded = ShardedGraph(g, partition)  # empty shards tolerated
            assert match(build_pattern({"a": "A", "b": "B"}, [("a", "b")]), sharded)

    def test_rejects_bad_arguments(self):
        g = build_graph({1: "A"}, [])
        with pytest.raises(ValueError):
            make_partition(g, 0)
        with pytest.raises(ValueError):
            make_partition(g, 2, "metis")

    def test_stats_payload(self):
        g = random_labeled_graph(random.Random(2), 30, 80)
        stats = make_partition(g, 3, "hash").stats()
        assert stats["strategy"] == "hash"
        assert stats["shards"] == 3
        assert len(stats["sizes"]) == 3
        assert stats["edge_cut"] <= g.num_edges
        assert 0.0 <= stats["edge_cut_fraction"] <= 1.0


# ----------------------------------------------------------------------
# ShardedGraph read API mirrors DataGraph
# ----------------------------------------------------------------------
class TestShardedGraphApi:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_read_api_equivalence_randomized(self, strategy):
        rng = random.Random(13)
        for _ in range(8):
            g = random_labeled_graph(rng, rng.randint(1, 35), rng.randint(0, 80))
            sharded = ShardedGraph(g, make_partition(g, rng.randint(1, 4), strategy))
            assert sharded.freeze() is sharded
            assert len(sharded) == len(g)
            assert sharded.num_edges == g.num_edges
            assert sharded.size == g.size
            assert set(sharded.nodes()) == set(g.nodes())
            assert sorted(sharded.edges(), key=repr) == sorted(g.edges(), key=repr)
            for v in g.nodes():
                assert v in sharded
                assert sharded.successors(v) == g.successors(v)
                assert sharded.predecessors(v) == g.predecessors(v)
                assert sharded.out_degree(v) == g.out_degree(v)
                assert sharded.in_degree(v) == g.in_degree(v)
                assert sharded.labels(v) == g.labels(v)
                assert sharded.attrs(v) == g.attrs(v)
                assert sharded.node_of(sharded.id_of(v)) == v
                bound = rng.randint(1, 4)
                assert sharded.descendants_within(v, bound) == (
                    g.descendants_within(v, bound)
                )
            for label in "ABC":
                assert set(sharded.nodes_with_label(label)) == set(
                    g.nodes_with_label(label)
                )
            assert sharded.label_index_stats() == g.label_index_stats()
            assert 99_999 not in sharded
            assert not sharded.has_edge(99_999, 0)

    def test_composite_id_space_is_dense_and_shard_major(self):
        g = random_labeled_graph(random.Random(17), 30, 70)
        sharded = ShardedGraph(g, make_partition(g, 3, "hash"))
        assert sorted(sharded.id_of(v) for v in g.nodes()) == list(range(len(g)))
        # Own nodes precede ghosts in every shard's local id space.
        for i in range(sharded.num_shards):
            own = sharded.own_count(i)
            snapshot = sharded.shard(i)
            for node, local_id in sharded.ghost_ids(i).items():
                assert local_id >= own
                # Ghost translation points at the owner's global id.
                assert sharded.global_row(i)[local_id] == sharded.id_of(node)
            for local_id in range(own):
                assert sharded.global_row(i)[local_id] == sharded.id_of(
                    snapshot.node_of(local_id)
                )

    def test_isolated_from_later_mutations(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        sharded = ShardedGraph(g, make_partition(g, 2))
        g.add_node(3, labels="B")
        g.add_edge(2, 3)
        assert 3 not in sharded
        assert sharded.num_edges == 1
        assert set(sharded.nodes_with_label("B")) == {2}

    def test_pickles(self):
        import pickle

        g = random_labeled_graph(random.Random(19), 25, 60)
        sharded = ShardedGraph(g, make_partition(g, 3, "bfs"))
        revived = pickle.loads(pickle.dumps(sharded))
        assert revived.snapshot_token == sharded.snapshot_token
        assert set(revived.nodes()) == set(sharded.nodes())
        q = random_pattern(random.Random(1), 3, 4)
        assert match(q, revived) == match(q, sharded)


# ----------------------------------------------------------------------
# Partial-evaluation simulation == single-machine simulation
# ----------------------------------------------------------------------
class TestPsimEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_randomized_equivalence(self, strategy):
        rng = random.Random(23)
        for _ in range(40):
            g = random_labeled_graph(rng, rng.randint(2, 40), rng.randint(1, 100))
            q = random_pattern(rng, rng.randint(2, 6), rng.randint(1, 10))
            sharded = ShardedGraph(
                g, make_partition(g, rng.randint(1, 5), strategy)
            )
            assert partial_max_simulation(q, sharded) == maximum_simulation(q, g)
            assert sharded_match(q, sharded) == match(q, g)
            # The generic dispatch in match() takes the psim path too.
            assert match(q, sharded) == match(q, g)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_self_loops_randomized(self, strategy):
        rng = random.Random(29)
        for _ in range(20):
            g = random_labeled_graph(rng, rng.randint(2, 25), rng.randint(1, 60))
            q = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 8))
            for node in rng.sample(list(q.nodes()), rng.randint(1, 2)):
                q.add_edge(node, node)
            for node in rng.sample(list(g.nodes()), min(3, len(g))):
                g.add_edge(node, node)
            sharded = ShardedGraph(g, make_partition(g, rng.randint(2, 4), strategy))
            assert sharded_match(q, sharded) == match(q, g)

    def test_attribute_conditions(self):
        rng = random.Random(31)
        for _ in range(10):
            g = DataGraph()
            n = rng.randint(4, 30)
            for i in range(n):
                g.add_node(
                    i, labels=rng.choice("AB"), attrs={"score": rng.randint(0, 10)}
                )
            for _ in range(rng.randint(3, 60)):
                g.add_edge(rng.randrange(n), rng.randrange(n))
            q = build_pattern({}, [])
            q.add_node("hi", (P("score") >= 5).with_label("A"))
            q.add_node("any", rng.choice("AB"))
            q.add_edge("hi", "any")
            sharded = ShardedGraph(g, make_partition(g, 3, rng.choice(STRATEGIES)))
            assert match(q, sharded) == match(q, g)

    def test_no_match_returns_empty(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        sharded = ShardedGraph(g, make_partition(g, 2))
        q = build_pattern({"b": "B", "a": "A"}, [("b", "a")])
        assert partial_max_simulation(q, sharded) is None
        assert not sharded_match(q, sharded)

    def test_cross_shard_cascade(self):
        # A chain split across shards: invalidation must travel through
        # the coordinator (shard of 1 learns about 3's failure only via
        # withdrawn assumptions on ghost 2).
        g = build_graph({1: "A", 2: "B", 3: "C", 4: "D"}, [(1, 2), (2, 3)])
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C", "d": "D"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        assignment = {1: 0, 2: 1, 3: 0, 4: 1}
        sharded = ShardedGraph(g, Partition(g, assignment, 2, "manual"))
        assert partial_max_simulation(q, sharded) is None
        assert match(q, g) == sharded_match(q, sharded)

    def test_executors_agree(self):
        rng = random.Random(37)
        g = random_labeled_graph(rng, 40, 120)
        sharded = ShardedGraph(g, make_partition(g, 3, "hash"))
        q = random_pattern(rng, 4, 7)
        expect = sharded_match(q, sharded, executor="serial")
        assert sharded_match(q, sharded, executor="process", workers=2) == expect

    @pytest.mark.parametrize("executor", ["serial"])
    def test_failed_wave_drops_its_sessions(self, executor, monkeypatch):
        # A task raising mid-wave on a caller-owned runner must not leave
        # the other shards' fixpoint states behind in the store.
        import repro.shard.psim as psim

        rng = random.Random(43)
        g = random_labeled_graph(rng, 40, 120)
        sharded = ShardedGraph(g, make_partition(g, 3, "hash"))
        q = random_pattern(rng, 4, 7)
        real = psim.witness_fixpoint

        def failing(pattern, snapshot, *rest, **kwargs):
            if snapshot is sharded.shard(1):
                raise RuntimeError("injected")
            return real(pattern, snapshot, *rest, **kwargs)

        with ShardRunner(sharded, executor=executor, workers=3) as runner:
            monkeypatch.setattr(psim, "witness_fixpoint", failing)
            with pytest.raises(RuntimeError, match="injected"):
                sharded_match(q, sharded, runner=runner)
            assert runner._store == {}
            views = ViewSet(
                [ViewDefinition(f"v{i}", random_pattern(rng, 3, 4)) for i in range(3)]
            )
            with pytest.raises(RuntimeError, match="injected"):
                parallel_materialize(views, sharded, runner=runner)
            assert runner._store == {}
            monkeypatch.setattr(psim, "witness_fixpoint", real)
            assert sharded_match(q, sharded, runner=runner) == match(q, g)
            assert runner._store == {}

    def test_runner_rejects_foreign_graph(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        other = ShardedGraph(g, make_partition(g, 2))
        sharded = ShardedGraph(g, make_partition(g, 2))
        q = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
        with ShardRunner(other) as runner:
            with pytest.raises(ValueError):
                sharded_match(q, sharded, runner=runner)
        with pytest.raises(ValueError):
            ShardRunner(sharded, executor="bogus")


# ----------------------------------------------------------------------
# Materialization: merged extensions == single-snapshot extensions
# ----------------------------------------------------------------------
class TestShardedMaterialize:
    def _suite(self, seed, num_shards, strategy):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=seed)
        definitions = list(generate_views(labels, 8, seed=seed))
        frozen_views = ViewSet(definitions)
        frozen_views.materialize(graph.freeze())
        sharded = ShardedGraph(graph, make_partition(graph, num_shards, strategy))
        return graph, definitions, frozen_views, sharded

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_extensions_match_single_snapshot(self, strategy):
        graph, definitions, frozen_views, sharded = self._suite(3, 4, strategy)
        views = ViewSet(definitions)
        views.materialize(sharded)
        assert views.snapshot_token == sharded.snapshot_token
        for name in views.names():
            extension = views.extension(name)
            assert extension.edge_matches == frozen_views.extension(name).edge_matches
            assert extension.compact is not None
            assert extension.compact.token == sharded.snapshot_token
            assert extension.compact.version == sharded.snapshot_version

    def test_matchjoin_fast_path_engages_and_agrees(self):
        graph, definitions, frozen_views, sharded = self._suite(5, 3, "hash")
        views = ViewSet(definitions)
        views.materialize(sharded)
        for qseed in range(4):
            query = query_from_views(views, 4, 6, seed=qseed)
            containment = contains(query, views)
            assert containment.holds
            with matchjoin_metrics() as count:
                result = match_join(query, containment, views)
                assert count("total", "ids") == 1  # composite id space
            assert result == match_join(query, containment, frozen_views)
            assert result.edge_matches == match(query, graph).edge_matches

    def test_parallel_materialize_serial_and_process(self):
        _, definitions, frozen_views, sharded = self._suite(7, 4, "bfs")
        for executor in ("serial", "process"):
            views = ViewSet(definitions)
            parallel_materialize(views, sharded, executor=executor, workers=2)
            for name in views.names():
                assert (
                    views.extension(name).edge_matches
                    == frozen_views.extension(name).edge_matches
                )
                assert views.extension(name).compact.token == sharded.snapshot_token

    def test_parallel_materialize_subset_and_shared_runner(self):
        _, definitions, frozen_views, sharded = self._suite(9, 2, "label")
        views = ViewSet(definitions)
        chosen = views.names()[:3]
        with ShardRunner(sharded, executor="process", workers=2) as runner:
            parallel_materialize(views, sharded, names=chosen, runner=runner)
        for name in views.names():
            assert views.is_materialized(name) == (name in chosen)
        assert views.snapshot_token == sharded.snapshot_token

    def test_empty_view_extension(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        sharded = ShardedGraph(g, make_partition(g, 2))
        definition = ViewDefinition(
            "void", build_pattern({"b": "B", "a": "A"}, [("b", "a")])
        )
        extension = materialize_view(definition, sharded)
        assert extension.is_empty
        assert extension.compact is not None
        assert extension.compact.token == sharded.snapshot_token

    def test_bounded_views_fall_back_to_generic_engine(self):
        from helpers import build_bounded

        g = build_graph(
            {1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)]
        )
        sharded = ShardedGraph(g, make_partition(g, 2))
        definition = ViewDefinition(
            "hop2", build_bounded({"a": "A", "c": "C"}, [("a", "c", 2)])
        )
        via_sharded = materialize_view(definition, sharded)
        via_graph_views = ViewSet([definition])
        via_graph_views.materialize(g)
        assert via_sharded.edge_matches == via_graph_views.extension("hop2").edge_matches
        assert via_sharded.distances == via_graph_views.extension("hop2").distances
        # Bounded match agrees on the sharded read API too.
        assert bounded_match(definition.pattern, sharded) == bounded_match(
            definition.pattern, g
        )

    def test_bounded_simulates_takes_the_shard_dispatch(self):
        from helpers import build_bounded

        rng = random.Random(47)
        for _ in range(10):
            g = random_labeled_graph(rng, rng.randint(4, 25), rng.randint(4, 60))
            base = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
            q = build_bounded(
                {u: base.condition(u) for u in base.nodes()},
                [(u, u1, rng.choice([1, 2, 3])) for u, u1 in base.edges()],
            )
            sharded = ShardedGraph(
                g, make_partition(g, rng.randint(1, 4), rng.choice(STRATEGIES))
            )
            expected = bounded_match(q, g)
            assert bounded_match(q, sharded) == expected
            assert bounded_simulates(q, sharded) == bool(expected)
            assert bounded_simulates(q, g.freeze()) == bool(expected)

    def test_generic_engines_run_on_sharded_graphs(self):
        rng = random.Random(41)
        g = random_labeled_graph(rng, 25, 60)
        q = random_pattern(rng, 3, 5)
        sharded = ShardedGraph(g, make_partition(g, 3, "bfs"))
        assert dual_match(q, sharded) == dual_match(q, g)


# ----------------------------------------------------------------------
# QueryEngine shards mode
# ----------------------------------------------------------------------
class TestEngineSharded:
    @pytest.fixture
    def workload(self):
        labels = tuple(f"l{i}" for i in range(6))
        graph = random_graph(150, 400, labels=labels, seed=8)
        definitions = list(generate_views(labels, 8, seed=8))
        queries = [
            query_from_views(ViewSet(definitions), 4, 6, seed=s) for s in range(4)
        ]
        return graph, definitions, queries

    def test_answers_equal_single_snapshot_engine(self, workload):
        graph, definitions, queries = workload
        plain = QueryEngine(ViewSet(definitions), graph=graph)
        sharded = QueryEngine(
            ViewSet(definitions), graph=graph, shards=3, partitioner="bfs"
        )
        assert isinstance(sharded.snapshot(), ShardedGraph)
        for a, b, q in zip(
            plain.answer_batch(queries), sharded.answer_batch(queries), queries
        ):
            assert a == b
            assert a.edge_matches == match(q, graph).edge_matches
        # On-demand extensions are bound to the composite snapshot.
        assert sharded.views.snapshot_token == sharded.snapshot().snapshot_token
        # Warm cache serves the repeat.
        assert all(r.stats.cache_hit for r in sharded.answer_batch(queries))

    def test_snapshot_partitioned_once_and_follows_mutations(self, workload):
        graph, definitions, _ = workload
        engine = QueryEngine(ViewSet(definitions), graph=graph, shards=2)
        first = engine.snapshot()
        assert engine.snapshot() is first
        graph.add_node("fresh", labels="l0")
        second = engine.snapshot()
        assert second is not first
        assert second.snapshot_version == graph.version
        assert "fresh" in second

    def test_maintenance_event_refreshes_sharded_snapshot(self, workload):
        graph, definitions, _ = workload
        tracker = IncrementalViewSet(definitions[:2], graph)
        engine = QueryEngine(ViewSet(definitions[:2]), graph=graph, shards=2)
        engine.attach_maintenance(tracker)
        first = engine.snapshot()
        assert isinstance(first, ShardedGraph)
        nodes = list(tracker.graph.nodes())
        source = next(
            node for node in nodes
            if not tracker.graph.has_edge(node, nodes[0])
        )
        tracker.insert_edge(source, nodes[0])
        second = engine.snapshot()
        # Refreshed -- only the shard owning the new edge's source is
        # rebuilt, the other is reused by reference, and the composite
        # token chains to the previous snapshot.
        assert isinstance(second, ShardedGraph)
        assert second is not first
        assert second.extends_token == first.snapshot_token
        touched = second.partition.shard_of(source)
        for index in range(second.num_shards):
            if index != touched:
                assert second.shard(index) is first.shard(index)
        assert second.has_edge(source, nodes[0])

    def test_direct_fallback_runs_psim(self, workload):
        graph, definitions, _ = workload
        engine = QueryEngine(ViewSet(definitions), graph=graph, shards=3)
        # A query over a label no view covers: planner goes direct.
        uncovered = build_pattern({"x": "l0", "y": "l1"}, [("x", "y")])
        plan = engine.plan(uncovered)
        result = engine.execute(plan)
        assert result.edge_matches == match(uncovered, graph).edge_matches

    def test_shards_one_is_honored(self, workload):
        graph, definitions, queries = workload
        engine = QueryEngine(ViewSet(definitions), graph=graph, shards=1)
        snapshot = engine.snapshot()
        assert isinstance(snapshot, ShardedGraph)
        assert snapshot.num_shards == 1
        result = engine.answer(queries[0])
        assert result.edge_matches == match(queries[0], graph).edge_matches

    def test_rejects_bad_shard_arguments(self, workload):
        graph, definitions, _ = workload
        with pytest.raises(ValueError):
            QueryEngine(ViewSet(definitions), graph=graph, shards=0)
        with pytest.raises(ValueError):
            QueryEngine(
                ViewSet(definitions), graph=graph, shards=2, partitioner="metis"
            )
