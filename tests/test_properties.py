"""Property-based tests (hypothesis) for the core invariants.

The central properties, each quantified over random graphs, patterns
and view sets:

* the engines compute the unique *maximum* (bounded) simulation;
* Theorem 1: whenever ``Q ⊑ V``, MatchJoin over ``V(G)`` equals Match
  over ``G`` -- for plain and bounded queries, the kernel and the naive
  loop, and every form the extensions' payload can take;
* Proposition 7 coverage is sound: every λ target's extension really
  contains the covered edge's matches;
* minimal subsets are minimal; greedy minimum subsets contain the query;
* condition implication is sound on concrete attribute values.
"""

import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.core.containment import contains
from repro.core.matchjoin import match_join
from repro.core.minimal import minimal_views
from repro.core.minimum import minimum_views
from repro.core.bounded.bcontainment import bounded_contains
from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.graph import ANY, BoundedPattern, DataGraph, Pattern
from repro.graph.conditions import Atom, AttributeCondition, implies
from repro.shard.partitioner import PARTITIONERS, Partition, make_partition
from repro.shard.sharded import ShardedGraph
from repro.simulation import bounded_match, match
from repro.simulation.simulation import evaluate, maximum_simulation
from repro.views import ViewDefinition, ViewSet

from helpers import (
    KERNELS,
    forced_kernel,
    fresh_registry,
    random_labeled_graph,
    random_pattern,
    reference_bounded_simulation,
    reference_edge_matches,
    reference_simulation,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
seeds = st.integers(min_value=0, max_value=10_000)


def make_instance(seed: int, bounded: bool = False):
    rng = random.Random(seed)
    graph = random_labeled_graph(rng, rng.randint(4, 25), rng.randint(4, 70))
    base = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 7))
    if not bounded:
        return rng, graph, base
    pattern = BoundedPattern()
    for node in base.nodes():
        pattern.add_node(node, base.condition(node))
    for source, target in base.edges():
        pattern.add_edge(source, target, rng.choice([1, 2, 3, ANY]))
    return rng, graph, pattern


# ----------------------------------------------------------------------
# Engine maximality
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_match_equals_reference_fixpoint(seed):
    _, graph, pattern = make_instance(seed)
    expected = reference_simulation(pattern, graph)
    result = match(pattern, graph)
    if expected is None:
        assert not result
    else:
        assert result.node_matches == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_bounded_match_equals_reference_fixpoint(seed):
    _, graph, pattern = make_instance(seed, bounded=True)
    expected = reference_bounded_simulation(pattern, graph)
    result = bounded_match(pattern, graph)
    if expected is None:
        assert not result
    else:
        assert result.node_matches == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_match_result_is_simulation(seed):
    """Every returned relation actually satisfies the simulation
    conditions (the 'is a simulation' half of maximality)."""
    _, graph, pattern = make_instance(seed)
    result = match(pattern, graph)
    if not result:
        return
    for u in pattern.nodes():
        for v in result.node_matches[u]:
            assert pattern.condition(u).matches(graph.labels(v), graph.attrs(v))
            for u1 in pattern.successors(u):
                assert any(
                    w in result.node_matches[u1] for w in graph.successors(v)
                )


# ----------------------------------------------------------------------
# One Match kernel: every id-space backend equals the dict reference
# ----------------------------------------------------------------------
#: Every graph object the one kernel runs behind: the no-ghost snapshot,
#: a 1-shard sharded graph (a shard without ghosts), and 2-4 shards
#: under each partitioner.
id_space_backends = st.sampled_from(
    [("compact", 1, "hash"), ("sharded", 1, "hash")]
    + [("sharded", k, s) for k in (2, 3, 4) for s in sorted(PARTITIONERS)]
)
pattern_flavours = st.sampled_from(["plain", "self_loop", "one_shard"])


def kernel_instance(seed, backend, flavour):
    """``(graph, pattern, target)``: a random instance and the id-space
    backend object ``target`` built over ``graph``."""
    rng, graph, pattern = make_instance(seed)
    if flavour == "self_loop":
        for node in rng.sample(list(pattern.nodes()), rng.randint(1, 2)):
            pattern.add_edge(node, node)
        for node in rng.sample(list(graph.nodes()), min(4, len(graph))):
            graph.add_edge(node, node)
    elif flavour == "one_shard":
        # The pattern's labels live on an island of their own, which
        # the partition below keeps whole in shard 0.
        pattern = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 5), "XY")
        island = [f"x{i}" for i in range(rng.randint(2, 8))]
        for node in island:
            graph.add_node(node, labels=rng.choice("XY"))
        for _ in range(rng.randint(2, 20)):
            graph.add_edge(rng.choice(island), rng.choice(island))
        graph.add_edge(0, island[0])
    kind, shards, strategy = backend
    if kind == "compact":
        return graph, pattern, graph.freeze()
    partition = make_partition(graph, shards, strategy)
    if flavour == "one_shard":
        assignment = {
            node: 0 if str(node).startswith("x") else home
            for node, home in partition.assignment.items()
        }
        partition = Partition(graph, assignment, shards, "manual")
    return graph, pattern, ShardedGraph(graph, partition)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, backend=id_space_backends, flavour=pattern_flavours)
def test_kernel_equals_dict_maximum_simulation(seed, backend, flavour):
    graph, pattern, target = kernel_instance(seed, backend, flavour)
    expected = maximum_simulation(pattern, graph)
    result, id_rows, id_distances = evaluate(pattern, target)
    assert id_distances is None
    assert result == match(pattern, target)
    if expected is None:
        assert not result and id_rows is None
        return
    assert result.node_matches == expected
    pairs = reference_edge_matches(pattern, graph, expected)
    assert result.edge_matches == pairs
    # The id rows are the same pairs in the target's id space, one
    # ``(src, tgt)`` row per pair.
    table = target.node_table
    assert set(id_rows) == set(pairs)
    for edge, (src, tgt) in id_rows.items():
        assert len(src) == len(tgt) == len(pairs[edge])
        assert {(table[v], table[w]) for v, w in zip(src, tgt)} == pairs[edge]


def test_kernel_no_ghost_case_aliases_and_exits_early():
    """Count-based pin of the no-ghost case: no split pass (``full`` is
    ``sim``), and the run ends at the first emptied set."""
    from repro.simulation.compact_engine import witness_fixpoint

    graph = DataGraph()
    for node, label in {"a": "A", "b1": "B", "b2": "B", "c": "C"}.items():
        graph.add_node(node, labels=label)
    graph.add_edge("a", "b1")
    graph.add_edge("b2", "c")
    frozen = graph.freeze()

    def chain(*labels):
        pattern = Pattern()
        for i, label in enumerate(labels):
            pattern.add_node(i, label)
            if i:
                pattern.add_edge(i - 1, i)
        return pattern

    state = witness_fixpoint(chain("B", "C"), frozen, frozen.num_nodes)
    assert state.full is state.sim
    homes = {"a": 0, "b1": 1, "b2": 0, "c": 1}
    sharded = ShardedGraph(graph, Partition(graph, homes, 2, "manual"))
    shard = sharded.shard(0)  # owns a and b2, ghosts b1 and c
    state = witness_fixpoint(
        chain("B", "C"), shard, sharded.own_count(0), pruned={}
    )
    assert state.full is not state.sim
    assert state.sim[0] == {shard.id_of("b2")}
    assert state.full[0] == {shard.id_of("b1"), shard.id_of("b2")}

    def batches(pattern, target, kernel="sets"):
        with fresh_registry() as registry, forced_kernel(kernel):
            result, id_rows, _ = evaluate(pattern, target)
            assert not result and id_rows is None
            return registry.counter("repro_sim_batches_total").value

    for kernel in KERNELS:
        # A seed that is already empty: nothing runs at all.
        assert batches(chain("A", "D"), frozen, kernel) == 0
        # b1 has no C successor, so its batch (the sweep of pattern node
        # B) empties sim(A): the whole-graph run stops there ...
        assert batches(chain("A", "B", "C"), frozen, kernel) == 1
    # ... while a shard (whose matches may live elsewhere) goes on to
    # propagate a's removal.
    assert batches(chain("A", "B", "C"), ShardedGraph(graph, num_shards=1)) == 2


# ----------------------------------------------------------------------
# Theorem 1 end to end
# ----------------------------------------------------------------------
def edge_views(pattern, rng):
    views = ViewSet()
    for i, edge in enumerate(pattern.edges()):
        views.add(ViewDefinition(f"E{i}", pattern.subpattern([edge])))
    edges = pattern.edges()
    if len(edges) >= 2 and rng.random() < 0.5:
        views.add(ViewDefinition("PAIR", pattern.subpattern(rng.sample(edges, 2))))
    return views


def loosened(pattern, rng):
    """``pattern`` with some bounds raised: it still contains the
    original, but its extensions hold pairs that the original's edges
    must filter out through ``I(V)``."""
    wide = BoundedPattern()
    for node in pattern.nodes():
        wide.add_node(node, pattern.condition(node))
    for edge in pattern.edges():
        bound = pattern.bound(edge)
        if bound is not ANY and rng.random() < 0.5:
            bound = rng.choice([bound + 1, bound + 2, ANY])
        wide.add_edge(*edge, bound)
    return wide


#: Every form an extension's id-space payload reaches MatchJoin in.
payload_forms = st.sampled_from(
    ["keys", "rows", "packed", "attached", "sharded", "mixed"]
)


def materialized(views, graph, form):
    """``views`` materialized on ``graph`` with one payload form; the
    extensions mapping a MatchJoin call then reads."""
    if form == "keys":  # node-key sets only
        views.materialize(graph)
    elif form == "rows":  # in-process id rows
        views.materialize(graph.freeze())
    elif form == "sharded":  # composite ids
        views.materialize(ShardedGraph(graph, num_shards=3))
    elif form == "mixed":  # two snapshots' tokens, one view without payload
        names = views.names()
        views.materialize(graph.freeze())
        views.materialize(graph.copy().freeze(), names=names[:1])
        views.materialize(graph, names=names[1:2])
    else:  # rows packed beside a shared snapshot
        views.materialize(graph.freeze(shared=True))
        if form == "attached":  # ... as a pool worker receives them
            return pickle.loads(pickle.dumps(views.extensions()))
    return views.extensions()


@settings(max_examples=90, deadline=None)
@given(seed=seeds, form=payload_forms)
def test_theorem1_matchjoin_equals_match(seed, form):
    rng, graph, pattern = make_instance(seed)
    views = edge_views(pattern, rng)
    containment = contains(pattern, views)
    assert containment.holds
    extensions = materialized(views, graph, form)
    direct = match(pattern, graph)
    result = match_join(pattern, containment, extensions)
    naive = match_join(pattern, containment, extensions, optimized=False)
    assert result.edge_matches == naive.edge_matches == direct.edge_matches


@settings(max_examples=70, deadline=None)
@given(seed=seeds, form=payload_forms)
def test_theorem8_bounded_matchjoin_equals_bmatch(seed, form):
    rng, graph, pattern = make_instance(seed, bounded=True)
    views = edge_views(loosened(pattern, rng), rng)
    containment = bounded_contains(pattern, views)
    assert containment.holds
    extensions = materialized(views, graph, form)
    direct = bounded_match(pattern, graph)
    result = bounded_match_join(pattern, containment, extensions)
    naive = bounded_match_join(pattern, containment, extensions, optimized=False)
    assert result.edge_matches == naive.edge_matches == direct.edge_matches


# ----------------------------------------------------------------------
# Proposition 7 coverage soundness
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_lambda_coverage_is_sound(seed):
    """For every λ entry (e -> view edge), every match of e in a random
    graph lies in that view edge's extension -- the defining property of
    pattern containment."""
    rng, graph, pattern = make_instance(seed)
    views = edge_views(pattern, rng)
    containment = contains(pattern, views)
    views.materialize(graph)
    direct = match(pattern, graph)
    if not direct:
        return
    for edge, refs in containment.mapping.items():
        union = set()
        for view_name, view_edge in refs:
            union |= views.extension(view_name).pairs_of(view_edge)
        assert direct.edge_matches[edge] <= union


# ----------------------------------------------------------------------
# minimal / minimum structure
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_minimal_subset_is_minimal(seed):
    rng, _, pattern = make_instance(seed)
    views = edge_views(pattern, rng)
    minimal = minimal_views(pattern, views)
    assert minimal.holds
    chosen = [v for v in views if v.name in minimal.views_used()]
    for leave_out in minimal.views_used():
        remaining = [v for v in chosen if v.name != leave_out]
        assert not contains(pattern, remaining).holds


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_minimum_contains_query(seed):
    rng, _, pattern = make_instance(seed)
    views = edge_views(pattern, rng)
    minimum = minimum_views(pattern, views)
    assert minimum.holds
    chosen = [v for v in views if v.name in minimum.views_used()]
    assert contains(pattern, chosen).holds


# ----------------------------------------------------------------------
# Serialization round trips
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_graph_json_round_trip(seed):
    from repro.graph.io import graph_from_json, graph_to_json

    rng, graph, _ = make_instance(seed)
    for node in list(graph.nodes())[:5]:
        graph.add_node(node, attrs={"score": rng.randint(0, 10)})
    back = graph_from_json(graph_to_json(graph))
    assert set(back.edges()) == set(graph.edges())
    assert all(back.labels(n) == graph.labels(n) for n in graph.nodes())
    assert all(back.attrs(n) == graph.attrs(n) for n in graph.nodes())


@settings(max_examples=40, deadline=None)
@given(seed=seeds, bounded=st.booleans())
def test_pattern_json_round_trip(seed, bounded):
    from repro.graph.io import pattern_from_json, pattern_to_json

    _, _, pattern = make_instance(seed, bounded=bounded)
    back = pattern_from_json(pattern_to_json(pattern))
    assert set(back.edges()) == set(pattern.edges())
    assert all(back.condition(n) == pattern.condition(n) for n in pattern.nodes())
    if bounded:
        assert back.bounds() == pattern.bounds()


# ----------------------------------------------------------------------
# Workload generator invariants
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=seeds, bounded=st.booleans())
def test_query_from_views_always_contained(seed, bounded):
    from repro.datasets import generate_views, query_from_views

    labels = tuple(f"l{i}" for i in range(6))
    views = generate_views(labels, 10, seed=seed % 50, bounded=bounded)
    query = query_from_views(views, 4, 6, seed=seed)
    checker = bounded_contains if bounded else contains
    assert checker(query, views).holds


# ----------------------------------------------------------------------
# Condition implication soundness
# ----------------------------------------------------------------------
_ops = st.sampled_from(["==", "!=", "<=", ">=", "<", ">"])
_vals = st.integers(min_value=-5, max_value=5)


@settings(max_examples=200, deadline=None)
@given(op1=_ops, v1=_vals, op2=_ops, v2=_vals, probe=_vals)
def test_atom_implication_sound(op1, v1, op2, v2, probe):
    """If implies(a, b) then every attribute value satisfying a
    satisfies b."""
    a = AttributeCondition((Atom("x", op1, v1),))
    b = AttributeCondition((Atom("x", op2, v2),))
    if implies(a, b):
        attrs = {"x": probe}
        if a.matches(frozenset(), attrs):
            assert b.matches(frozenset(), attrs)
