"""The snapshot candidate index is exact.

``CompactGraph.candidate_ids(c)`` must equal
``{i : c.matches(labels_of(i), attrs_of(i))}`` for every condition --
whatever the attribute values are (ints, floats with NaN, bools, strings,
``None``, or absent), on a plain snapshot, on an attached
snapshot saved and mapped back, on every shard of an ingested
``ShardedGraph`` (labels only: ingest carries no attributes) and across
``applied()``; and the engines that seed through it must agree with
the dict backend, which never touches it.
"""

import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rewriting import hybrid_answer
from repro.datasets import youtube_graph, youtube_views
from repro.graph import DataGraph, P, Pattern
from repro.graph.conditions import (
    Atom,
    AttributeCondition,
    Condition,
    Label,
    TrueCondition,
)
from repro.obs import trace
from repro.shard.psim import sharded_match
from repro.simulation import bounded_match, match
from repro.views import ViewDefinition, ViewSet

from helpers import (
    KERNELS,
    attached,
    forced_kernel,
    fresh_registry,
    ingested,
    name_in_shard,
)

ATTRS = ("x", "y", "z")
LABELS = ("A", "B")
OPS = ("==", "!=", "<=", ">=", "<", ">")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ints = st.integers(min_value=-3, max_value=3)
floats = st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.5, math.inf, math.nan])
strs = st.sampled_from(["", "a", "b", "ab", "Music"])
#: What one attribute's values are drawn from, column by column: the
#: first four order totally (mostly), the last mixes everything.
KINDS = {
    "int": ints,
    "num": st.one_of(ints, floats.filter(lambda v: v == v), st.booleans()),
    "str": strs,
    "float": floats,
    "any": st.one_of(ints, floats, st.booleans(), strs, st.none()),
}
values = KINDS["any"]


@st.composite
def graphs(draw):
    kinds = {attr: KINDS[draw(st.sampled_from(sorted(KINDS)))] for attr in ATTRS}
    n = draw(st.integers(min_value=1, max_value=12))
    graph = DataGraph()
    for node in range(n):
        attrs = {
            attr: draw(kinds[attr]) for attr in ATTRS if draw(st.booleans())
        }
        labels = [label for label in LABELS if draw(st.booleans())]
        graph.add_node(node, labels=labels, attrs=attrs)
    for source, target in draw(
        st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=2 * n)
    ):
        graph.add_edge(source, target)
    return graph


atoms = st.builds(Atom, st.sampled_from(ATTRS), st.sampled_from(OPS), values)
conditions = st.one_of(
    st.just(TrueCondition()),
    st.builds(Label, st.sampled_from(LABELS + ("C",))),
    st.builds(
        AttributeCondition,
        st.lists(atoms, min_size=1, max_size=3),
        label=st.sampled_from(("",) + LABELS),
    ),
)


def scan(snapshot, condition):
    return {
        i
        for i in range(snapshot.num_nodes)
        if condition.matches(snapshot.labels_of(i), snapshot.attrs_of(i))
    }


def assert_exact(snapshot, condition):
    expected = scan(snapshot, condition)
    assert snapshot.candidate_ids(condition) == expected
    # A second probe reads the columns the first one built.
    assert snapshot.candidate_ids(condition) == expected


# ----------------------------------------------------------------------
# Exactness, backend by backend
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(graph=graphs(), condition=conditions)
def test_candidate_index_on_compact_graph(graph, condition):
    assert_exact(graph.freeze(), condition)


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), condition=conditions)
def test_candidate_index_on_attached_shared_graph(graph, condition):
    frozen = graph.freeze()
    assert frozen.flat_store.backend == "bytes"
    loaded = attached(frozen)
    assert not loaded._columns  # rebuilt on this side, lazily
    assert_exact(loaded, condition)
    assert_exact(frozen, condition)


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), condition=conditions, k=st.integers(1, 3))
def test_candidate_index_on_every_shard(graph, condition, k):
    edges = [(str(s), str(t)) for s, t in graph.edges()]
    labels = {str(node): graph.labels(node) for node in graph.nodes()}
    with tempfile.TemporaryDirectory() as tmp:
        sharded, _ = ingested(edges, labels, k, tmp)
        for shard in sharded.shards:
            assert_exact(shard, condition)


@settings(max_examples=100, deadline=None)
@given(
    graph=graphs(),
    condition=conditions,
    edge=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    new_attrs=st.dictionaries(st.sampled_from(ATTRS), values),
)
def test_candidate_index_across_refreshed(graph, condition, edge, new_attrs):
    n = graph.num_nodes
    old = graph.freeze()
    assert_exact(old, condition)  # columns exist before the refresh

    source, target = edge[0] % n, edge[1] % n
    op = "delete" if graph.has_edge(source, target) else "insert"
    edge_only = old.applied([(op, source, target)])
    assert edge_only.extends_token == old.snapshot_token
    assert edge_only._columns is old._columns  # carried forward
    assert_exact(edge_only, condition)

    grown = edge_only.applied([("insert", n, source)])  # ``n``: a fresh, bare node
    assert grown.extends_token == edge_only.snapshot_token
    assert grown._columns is edge_only._columns  # a bare node joins no column
    assert_exact(grown, condition)
    assert_exact(attached(grown), condition)
    # Labels and attributes reach a snapshot only through a fresh freeze.
    graph.add_node(n, labels=LABELS[:1], attrs=new_attrs)
    graph.add_edge(n, source)
    assert_exact(graph.freeze(), condition)


def test_unknown_condition_types_are_scanned():
    class OddId(Condition):
        def matches(self, labels, attrs):
            return attrs.get("x", 0) % 2 == 1

        def key(self):
            return ("odd",)

    graph = DataGraph()
    for node in range(6):
        graph.add_node(node, labels="A", attrs={"x": node})
    assert graph.freeze().candidate_ids(OddId()) == {1, 3, 5}


# ----------------------------------------------------------------------
# What seeding reports
# ----------------------------------------------------------------------
@pytest.fixture
def registry():
    with fresh_registry() as fresh:
        yield fresh


def _rated_graph(ratings):
    graph = DataGraph()
    for node, rating in enumerate(ratings):
        graph.add_node(node, labels="video", attrs={"R": rating})
        if node:
            graph.add_edge(node - 1, node)
    return graph


def _rated_pattern():
    pattern = Pattern()
    pattern.add_node("u", P("R") >= 2)
    pattern.add_node("v", P("R") >= 3)
    pattern.add_edge("u", "v")
    return pattern


def test_seed_metrics_count_candidates_not_scans():
    snapshot = _rated_graph([1, 2, 3, 4]).freeze()
    for kernel in KERNELS:  # sets seeded or masks scattered
        with fresh_registry() as registry, forced_kernel(kernel):
            assert match(_rated_pattern(), snapshot)
        # u: {1, 2, 3}, v: {2, 3} -- straight off the column, nothing scanned.
        assert registry.counter("repro_sim_seed_candidates_total").value == 5
        assert registry.counter("repro_sim_seed_scanned_total").value == 0


def test_seed_metrics_show_a_column_that_fell_back(registry):
    snapshot = _rated_graph([1, 2, math.nan, 4]).freeze()
    assert snapshot.candidate_ids(_rated_pattern().condition("u")) == {1, 3}
    # The NaN column cannot be bisected: all four nodes were tested.
    assert registry.counter("repro_sim_seed_scanned_total").value == 4
    # ... and are again, per pattern node, whichever kernel seeds from it.
    for rerun, kernel in enumerate(KERNELS, start=1):
        with forced_kernel(kernel):
            match(_rated_pattern(), snapshot)
        assert registry.counter("repro_sim_seed_scanned_total").value == 4 + 8 * rerun


def test_seed_span_sits_under_the_match(registry):
    snapshot = _rated_graph([1, 2, 3, 4]).freeze()
    with trace.root_span("query") as root:
        match(_rated_pattern(), snapshot)
    (matched,) = [child for child in root.children if child.name == "match"]
    (seed,) = [child for child in matched.children if child.name == "seed"]
    assert seed.attrs == {"nodes": 2, "candidates": 5}


def test_seed_span_sits_under_each_shard_task(registry, tmp_path):
    chain = [name_in_shard(i, i % 2, 2) for i in range(4)]
    sharded, _ = ingested(
        list(zip(chain, chain[1:])), dict.fromkeys(chain, "video"), 2, tmp_path
    )
    pattern = Pattern()
    pattern.add_node("u", "video")
    pattern.add_node("v", "video")
    pattern.add_edge("u", "v")
    with trace.root_span("query") as root:
        assert sharded_match(pattern, sharded)

    def named(span, name):
        found = [span] if span.name == name else []
        for child in span.children:
            found += named(child, name)
        return found

    seeds = named(root, "seed")
    assert len(seeds) == 2
    assert all(span.parent.name == "psim.task" for span in seeds)


# ----------------------------------------------------------------------
# The engines that seed through the index agree with the dict backend
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def youtube():
    graph = youtube_graph(600, 2400, seed=5)
    return graph, graph.freeze()


@pytest.mark.parametrize("name", [f"P{i}" for i in range(1, 13)])
def test_label_free_suite_matches_the_dict_backend(youtube, name):
    graph, frozen = youtube
    pattern = youtube_views().definition(name).pattern
    expected = match(pattern, graph)
    assert match(pattern, frozen) == expected
    bounded = pattern.bounded(default=2)
    assert bounded_match(bounded, frozen) == bounded_match(bounded, graph)


@pytest.mark.parametrize("name", ["P3", "P5", "P10"])
def test_hybrid_join_seeds_uncovered_nodes_from_the_index(youtube, name):
    graph, frozen = youtube
    definition = youtube_views().definition(name)
    pattern = definition.pattern
    # A view over the pattern's first edge only: the rest is uncovered
    # and seeded from the graph.
    first = sorted(pattern.edges(), key=str)[:1]
    views = ViewSet([ViewDefinition("V", pattern.subpattern(frozenset(first)))])
    # Edge matches are the answer ``{(e, Se)}``; a join reports a sink's
    # node matches as the targets it reached, Match as all candidates.
    expected = match(pattern, graph).edge_matches
    assert hybrid_answer(pattern, views, frozen).edge_matches == expected
