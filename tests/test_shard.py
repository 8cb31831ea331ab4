"""The sharded backend: hash placement, ShardedGraph, psim, materialization.

Every sharded graph here is built the one way there is: ingested into a
snapshot directory and loaded (``helpers.ingested``).  Covers the whole
subsystem:

* ingest places every node exactly once, in the shard its name hashes
  to, and reports honest cut statistics;
* ``ShardedGraph`` mirrors the ``DataGraph`` read API over original
  node keys (randomized equivalence, including cross-shard
  predecessors and BFS);
* partial-evaluation simulation, ``sharded_match``, materialized
  extensions and ``match_join`` answers are identical to the
  single-``CompactGraph`` results under three placement shapes, chosen
  by naming nodes (``hash``: names as they come, most edges cut;
  ``label``: one shard per label; ``bfs``: undirected BFS blocks, few
  edges cut);
* a failed evaluation leaves nothing behind;
* a ``QueryEngine`` booted from a sharded snapshot directory plans,
  answers and caches exactly like the single-snapshot engine.
"""

import random
from collections import deque

import pytest

from helpers import (
    build_bounded,
    build_pattern,
    ingested,
    ingested_dir,
    matchjoin_metrics,
    name_in_shard,
    random_labeled_graph,
    random_pattern,
    str_keyed,
)
from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.datasets import generate_views, query_from_views, random_graph
from repro.engine import QueryEngine
from repro.graph.ingest import ingest_snapshot
from repro.shard import (
    ShardedGraph,
    StreamingHashPartitioner,
    partial_max_simulation,
    sharded_match,
)
from repro.shard.partitioner import _stable_hash
from repro.simulation import bounded_match, dual_match, match
from repro.simulation.bounded import bounded_simulates
from repro.simulation.simulation import maximum_simulation
from repro.views.storage import ViewSet
from repro.views.view import ViewDefinition, materialize

#: Placement shapes, each produced by naming nodes (see :func:`_placed`).
STRATEGIES = ("bfs", "hash", "label")


def _placed(edges, labels, k, placement):
    """``(edges, labels)`` renamed so hash placement yields ``placement``:
    ``hash`` keeps the names; ``label`` puts all nodes of a label in
    one shard; ``bfs`` cuts the undirected BFS order into ``k`` blocks."""
    if placement == "hash":
        return edges, labels
    nodes = list(dict.fromkeys(node for edge in edges for node in edge))
    if placement == "label":
        order = sorted({min(found) for found in labels.values()})
        shard_of = {node: order.index(min(labels[node])) % k for node in nodes}
    else:
        around = {node: set() for node in nodes}
        for source, target in edges:
            around[source].add(target)
            around[target].add(source)
        seen = {}
        for root in nodes:
            if root in seen:
                continue
            seen[root] = None
            queue = deque([root])
            while queue:
                for neighbor in sorted(around[queue.popleft()]):
                    if neighbor not in seen:
                        seen[neighbor] = None
                        queue.append(neighbor)
        block = -(-len(nodes) // k) or 1
        shard_of = {node: i // block for i, node in enumerate(seen)}
    name = {node: name_in_shard(node, shard_of[node], k) for node in nodes}
    return (
        [(name[s], name[t]) for s, t in edges],
        {name[node]: labels[node] for node in nodes},
    )


def _random_sharded(rng, tmp_path, placement, nodes, edges, shards):
    k = rng.randint(*shards)
    edge_list, labels = _placed(
        *str_keyed(random_labeled_graph(rng, rng.randint(*nodes), rng.randint(*edges))),
        k,
        placement,
    )
    return ingested(edge_list, labels, k, tmp_path)


def _home(sharded, node):
    """The shard whose own nodes include ``node``."""
    return next(
        i for i in range(sharded.num_shards)
        if node in list(sharded.shard(i).node_table)[: sharded.own_count(i)]
    )


# ----------------------------------------------------------------------
# Placement: ingest is the partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_node_assigned_exactly_once(self, strategy, tmp_path):
        rng = random.Random(3)
        for _ in range(10):
            sharded, g = _random_sharded(rng, tmp_path, strategy, (1, 60), (0, 150), (1, 6))
            k = sharded.num_shards
            seen = set()
            for i in range(k):
                own = list(sharded.shard(i).node_table)[: sharded.own_count(i)]
                assert seen.isdisjoint(own)
                seen.update(own)
                assert all(_stable_hash(node) % k == i for node in own)
            assert seen == set(g.nodes())
            assert len(sharded) == len(g)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cut_accounting(self, strategy, tmp_path):
        rng = random.Random(5)
        for _ in range(10):
            sharded, g = _random_sharded(rng, tmp_path, strategy, (2, 50), (1, 120), (2, 5))
            k = sharded.num_shards
            cut = {
                (s, t) for s, t in g.edges()
                if _stable_hash(s) % k != _stable_hash(t) % k
            }
            assert sharded.edge_cut == len(cut)
            for i in range(k):
                table = list(sharded.shard(i).node_table)
                ghosts = set(table[sharded.own_count(i):])
                assert ghosts == {t for s, t in cut if _stable_hash(s) % k == i}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, strategy, tmp_path):
        edges, labels = _placed(*str_keyed(random_labeled_graph(random.Random(9), 40, 100)), 3, strategy)
        first, _ = ingested(edges, labels, 3, tmp_path)
        second, _ = ingested(edges, labels, 3, tmp_path)
        for i in range(3):
            assert list(first.shard(i).node_table) == list(second.shard(i).node_table)
            assert first.global_row(i) == second.global_row(i)

    def test_more_shards_than_nodes(self, tmp_path):
        sharded, _ = ingested([("1", "2")], {"1": "A", "2": "B"}, 5, tmp_path)
        assert sharded.num_shards == 5 and len(sharded) == 2  # empty shards tolerated
        assert match(build_pattern({"a": "A", "b": "B"}, [("a", "b")]), sharded)

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            StreamingHashPartitioner(0, tmp_path)
        with pytest.raises(ValueError):
            ingest_snapshot(iter([("1", "2")]), tmp_path / "snap", num_shards=0)

    def test_stats_payload(self, tmp_path):
        edges, _ = str_keyed(random_labeled_graph(random.Random(2), 30, 80))
        report = ingest_snapshot(iter(edges), tmp_path / "snap", num_shards=3).to_json()
        assert report["shards"] == 3
        assert len(report["shard_stats"]) == 3
        assert report["cut_edges"] <= report["edges"] == len(set(edges))


# ----------------------------------------------------------------------
# ShardedGraph read API mirrors DataGraph
# ----------------------------------------------------------------------
class TestShardedGraphApi:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_read_api_equivalence_randomized(self, strategy, tmp_path):
        rng = random.Random(13)
        for _ in range(8):
            sharded, g = _random_sharded(rng, tmp_path, strategy, (1, 35), (0, 80), (1, 4))
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
            assert "missing" not in sharded
            assert not sharded.has_edge("missing", "0")

    def test_composite_id_space_is_dense_and_shard_major(self, tmp_path):
        edges, labels = str_keyed(random_labeled_graph(random.Random(17), 30, 70))
        sharded, g = ingested(edges, labels, 3, tmp_path)
        assert sorted(sharded.id_of(v) for v in g.nodes()) == list(range(len(g)))
        # Own nodes precede ghosts in every shard's local id space, and
        # every local id -- a ghost's too -- translates to its owner's
        # global id.
        for i in range(sharded.num_shards):
            table = sharded.shard(i).node_table
            for local_id, node in enumerate(table):
                assert sharded.global_row(i)[local_id] == sharded.id_of(node)
                assert (local_id < sharded.own_count(i)) == (_home(sharded, node) == i)


# ----------------------------------------------------------------------
# Partial-evaluation simulation == single-machine simulation
# ----------------------------------------------------------------------
class TestPsimEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_randomized_equivalence(self, strategy, tmp_path):
        rng = random.Random(23)
        for _ in range(40):
            sharded, g = _random_sharded(rng, tmp_path, strategy, (2, 40), (1, 100), (1, 5))
            q = random_pattern(rng, rng.randint(2, 6), rng.randint(1, 10))
            assert partial_max_simulation(q, sharded) == maximum_simulation(q, g)
            assert sharded_match(q, sharded) == match(q, g)
            # The generic dispatch in match() takes the psim path too.
            assert match(q, sharded) == match(q, g)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_self_loops_randomized(self, strategy, tmp_path):
        rng = random.Random(29)
        for _ in range(20):
            k = rng.randint(2, 4)
            edges, labels = str_keyed(
                random_labeled_graph(rng, rng.randint(2, 25), rng.randint(1, 60))
            )
            edges += [(node, node) for node in rng.sample(sorted(labels), min(3, len(labels)))]
            sharded, g = ingested(*_placed(edges, labels, k, strategy), k, tmp_path)
            q = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 8))
            for node in rng.sample(list(q.nodes()), rng.randint(1, 2)):
                q.add_edge(node, node)
            assert sharded_match(q, sharded) == match(q, g)

    def test_no_match_returns_empty(self, tmp_path):
        sharded, _ = ingested([("1", "2")], {"1": "A", "2": "B"}, 2, tmp_path)
        q = build_pattern({"b": "B", "a": "A"}, [("b", "a")])
        assert partial_max_simulation(q, sharded) is None
        assert not sharded_match(q, sharded)

    def test_cross_shard_cascade(self, tmp_path):
        # A chain split across shards: invalidation must travel through
        # the coordinator (shard of 1 learns about 3's failure only via
        # withdrawn assumptions on ghost 2).
        n1, n2, n3, n4 = (name_in_shard(i + 1, i % 2, 2) for i in range(4))
        sharded, g = ingested(
            [(n1, n2), (n2, n3), (n4, n4)],
            {n1: "A", n2: "B", n3: "C", n4: "D"},
            2,
            tmp_path,
        )
        assert [_home(sharded, n) for n in (n1, n2, n3)] == [0, 1, 0]
        q = build_pattern(
            {"a": "A", "b": "B", "c": "C", "d": "D"},
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        assert partial_max_simulation(q, sharded) is None
        assert match(q, g) == sharded_match(q, sharded)

    def test_failed_evaluation_leaves_nothing_behind(self, monkeypatch, tmp_path):
        # A local step raising mid-round drops its evaluation's states
        # with it: the sharded graph and the catalog answer the next
        # request as if nothing had happened.
        import repro.shard.psim as psim

        rng = random.Random(43)
        sharded, g = ingested(*str_keyed(random_labeled_graph(rng, 40, 120)), 3, tmp_path)
        q = random_pattern(rng, 4, 7)
        real = psim.witness_fixpoint

        def failing(pattern, snapshot, *rest, **kwargs):
            if snapshot is sharded.shard(1):
                raise RuntimeError("injected")
            return real(pattern, snapshot, *rest, **kwargs)

        monkeypatch.setattr(psim, "witness_fixpoint", failing)
        with pytest.raises(RuntimeError, match="injected"):
            sharded_match(q, sharded)
        views = ViewSet(
            [ViewDefinition(f"v{i}", random_pattern(rng, 3, 4)) for i in range(3)]
        )
        with pytest.raises(RuntimeError, match="injected"):
            views.materialize(sharded)
        monkeypatch.setattr(psim, "witness_fixpoint", real)
        assert sharded_match(q, sharded) == match(q, g)
        views.materialize(sharded)
        for name in views.names():
            assert views.extension(name).edge_matches == match(
                views.definition(name).pattern, g
            ).edge_matches


# ----------------------------------------------------------------------
# Materialization: merged extensions == single-snapshot extensions
# ----------------------------------------------------------------------
class TestShardedMaterialize:
    def _suite(self, tmp_path, seed, num_shards, strategy):
        labels = tuple(f"l{i}" for i in range(6))
        edges, names = str_keyed(random_graph(150, 400, labels=labels, seed=seed))
        edges, names = _placed(edges, {n: min(ls) for n, ls in names.items()}, num_shards, strategy)
        sharded, graph = ingested(edges, names, num_shards, tmp_path)
        definitions = list(generate_views(labels, 8, seed=seed))
        frozen_views = ViewSet(definitions)
        frozen_views.materialize(graph.freeze())
        return graph, definitions, frozen_views, sharded

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_extensions_match_single_snapshot(self, strategy, tmp_path):
        graph, definitions, frozen_views, sharded = self._suite(tmp_path, 3, 4, strategy)
        views = ViewSet(definitions)
        views.materialize(sharded)
        assert views.snapshot_token == sharded.snapshot_token
        for name in views.names():
            extension = views.extension(name)
            assert extension.edge_matches == frozen_views.extension(name).edge_matches
            assert extension.compact is not None
            assert extension.compact.token == sharded.snapshot_token
            assert extension.compact.version == sharded.snapshot_version

    def test_matchjoin_fast_path_engages_and_agrees(self, tmp_path):
        graph, definitions, frozen_views, sharded = self._suite(tmp_path, 5, 3, "hash")
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

    def test_parallel_materialize_matches_single_snapshot(self, tmp_path):
        _, definitions, frozen_views, sharded = self._suite(tmp_path, 7, 4, "bfs")
        views = ViewSet(definitions)
        views.materialize(sharded)
        for name in views.names():
            assert (
                views.extension(name).edge_matches
                == frozen_views.extension(name).edge_matches
            )
            assert views.extension(name).compact.token == sharded.snapshot_token

    def test_parallel_materialize_subset(self, tmp_path):
        _, definitions, frozen_views, sharded = self._suite(tmp_path, 9, 2, "label")
        views = ViewSet(definitions)
        chosen = views.names()[:3]
        views.materialize(sharded, names=chosen)
        for name in views.names():
            assert views.is_materialized(name) == (name in chosen)
        assert views.snapshot_token == sharded.snapshot_token

    def test_empty_view_extension(self, tmp_path):
        sharded, _ = ingested([("1", "2")], {"1": "A", "2": "B"}, 2, tmp_path)
        definition = ViewDefinition(
            "void", build_pattern({"b": "B", "a": "A"}, [("b", "a")])
        )
        extension = materialize(definition, sharded)
        assert extension.is_empty
        assert extension.compact is not None
        assert extension.compact.token == sharded.snapshot_token

    def test_bounded_views_fall_back_to_generic_engine(self, tmp_path):
        sharded, g = ingested(
            [("1", "2"), ("2", "3")], {"1": "A", "2": "B", "3": "C"}, 2, tmp_path
        )
        definition = ViewDefinition(
            "hop2", build_bounded({"a": "A", "c": "C"}, [("a", "c", 2)])
        )
        via_sharded = materialize(definition, sharded)
        via_graph_views = ViewSet([definition])
        via_graph_views.materialize(g)
        assert via_sharded.edge_matches == via_graph_views.extension("hop2").edge_matches
        assert via_sharded.distances == via_graph_views.extension("hop2").distances
        # Bounded match agrees on the sharded read API too.
        assert bounded_match(definition.pattern, sharded) == bounded_match(
            definition.pattern, g
        )

    def test_bounded_simulates_takes_the_shard_dispatch(self, tmp_path):
        rng = random.Random(47)
        for _ in range(10):
            sharded, g = _random_sharded(
                rng, tmp_path, rng.choice(STRATEGIES), (4, 25), (4, 60), (1, 4)
            )
            base = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5))
            q = build_bounded(
                {u: base.condition(u) for u in base.nodes()},
                [(u, u1, rng.choice([1, 2, 3])) for u, u1 in base.edges()],
            )
            expected = bounded_match(q, g)
            assert bounded_match(q, sharded) == expected
            assert bounded_simulates(q, sharded) == bool(expected)
            assert bounded_simulates(q, g.freeze()) == bool(expected)

    def test_generic_engines_run_on_sharded_graphs(self, tmp_path):
        rng = random.Random(41)
        edges, labels = _placed(*str_keyed(random_labeled_graph(rng, 25, 60)), 3, "bfs")
        sharded, g = ingested(edges, labels, 3, tmp_path)
        q = random_pattern(rng, 3, 5)
        assert dual_match(q, sharded) == dual_match(q, g)


# ----------------------------------------------------------------------
# QueryEngine booted from a sharded snapshot directory
# ----------------------------------------------------------------------
class TestEngineSharded:
    @pytest.fixture
    def workload(self, tmp_path):
        labels = tuple(f"l{i}" for i in range(6))
        edges, names = str_keyed(random_graph(150, 400, labels=labels, seed=8))
        definitions = list(generate_views(labels, 8, seed=8))
        queries = [
            query_from_views(ViewSet(definitions), 4, 6, seed=s) for s in range(4)
        ]

        def boot(num_shards):
            snapdir, graph = ingested_dir(edges, names, num_shards, tmp_path)
            return graph, QueryEngine(ViewSet(definitions), snapshot_path=snapdir)

        return definitions, queries, boot

    def test_direct_fallback_runs_psim(self, workload):
        _, _, boot = workload
        graph, engine = boot(3)
        # A query over a label no view covers: planner goes direct.
        uncovered = build_pattern({"x": "l0", "y": "l1"}, [("x", "y")])
        plan = engine.plan(uncovered)
        result = engine.execute(plan)
        assert result.edge_matches == match(uncovered, graph).edge_matches

    def test_shards_one_is_honored(self, workload):
        _, queries, boot = workload
        graph, engine = boot(1)
        snapshot = engine.snapshot()
        assert isinstance(snapshot, ShardedGraph)
        assert snapshot.num_shards == 1
        result = engine.answer(queries[0])
        assert result.edge_matches == match(queries[0], graph).edge_matches
