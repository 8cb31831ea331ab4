"""The array kernels equal the set kernels equal the dict engines.

``repro.simulation.array_engine`` (mask -> rows -> sweep over NumPy
arrays for Match, cones -> pairs for BMatch) answers whole-graph
snapshot matches above a size cut; the set kernels
(``compact_engine.witness_fixpoint``, ``compact_bounded``) answer
everything else and are what runs where NumPy is missing.  Both must
return the outcome the dict backend's ``maximum_simulation`` /
``bounded_match_with_distances`` defines -- node sets, edge matches, id
rows and the distance index ``I(V)`` -- whatever the pattern's shape and
whatever its conditions make the candidate index do.
"""

import math
import pickle
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import ANY, BoundedPattern, DataGraph, P, Pattern
from repro.graph.snapshot import SnapshotStore, live_directory, snapshot_files
from repro.graph.conditions import Condition, TrueCondition
from repro.obs import trace
from repro.simulation import array_engine, bounded_match
from repro.simulation.bounded import bounded_match_with_distances
from repro.simulation.compact_engine import decode_outcome
from repro.simulation.simulation import evaluate, match, maximum_simulation
from repro.views import ViewDefinition, materialize
from repro.views.maintenance import Delta

from helpers import (
    KERNELS,
    apply_ops,
    attached,
    dict_extension,
    forced_kernel,
    fresh_registry,
    random_labeled_graph,
    random_pattern,
    reference_edge_matches,
)

needs_numpy = pytest.mark.skipif(
    "array" not in KERNELS, reason="NumPy is not importable here"
)


class OddX(Condition):
    """A condition type the candidate index has never heard of."""

    def matches(self, labels, attrs):
        x = attrs.get("x")
        return isinstance(x, int) and x % 2 == 1

    def key(self):
        return ("odd-x",)


def frozen_as(graph, loaded):
    """``graph.freeze()``; when ``loaded``, saved and mapped back (lazy
    tables)."""
    return attached(graph) if loaded else graph.freeze()


def chain(*conditions):
    pattern = Pattern()
    for i, condition in enumerate(conditions):
        pattern.add_node(i, condition)
        if i:
            pattern.add_edge(i - 1, i)
    return pattern


#: What the pattern (or the data under it) is bent into, one case each
#: for the shapes and fallbacks the kernels must agree on.
FLAVOURS = (
    "plain", "cyclic", "self_loop", "two_way", "edgeless_node",
    "empty_seed", "swept_empty", "nan", "mixed", "unknown",
)
X_VALUES = {
    "nan": (0, 1, 2.5, 3, math.nan),
    "mixed": (0, 1, 2, 3, "a", None),
    "unknown": (0, 1, 2, 3),
}


def instance(seed, flavour):
    rng = random.Random(seed)
    n = rng.randint(4, 25)
    graph = random_labeled_graph(rng, n, rng.randint(4, 70))
    pattern = random_pattern(rng, rng.randint(2, 5), rng.randint(1, 7))
    nodes = list(pattern.nodes())
    if flavour == "cyclic":
        for i, node in enumerate(nodes):
            pattern.add_edge(node, nodes[(i + 1) % len(nodes)])
    elif flavour == "self_loop":
        for node in rng.sample(nodes, rng.randint(1, 2)):
            pattern.add_edge(node, node)
        for node in rng.sample(range(n), min(4, n)):
            graph.add_edge(node, node)
    elif flavour == "two_way":
        # Both directions of an edge, and two edges into one target.
        source, target = pattern.edges()[0]
        pattern.add_edge(target, source)
        pattern.add_node("twin", pattern.condition(source))
        pattern.add_edge("twin", target)
    elif flavour == "edgeless_node":
        pattern.add_node("alone", rng.choice("ABC"))
    elif flavour == "empty_seed":
        pattern.add_node("nobody", "Z")
        pattern.add_edge(nodes[0], "nobody")
    elif flavour == "swept_empty":
        # Every label is seeded, but no B has a C successor.
        pattern = chain("A", "B", "C")
        for label in "ABC":
            graph.add_node(f"extra-{label}", labels=label)
        graph.add_edge("extra-A", "extra-B")
        for source, target in list(graph.edges()):
            if "B" in graph.labels(source) and "C" in graph.labels(target):
                graph.remove_edge(source, target)
    elif flavour in X_VALUES:
        relabelled = DataGraph()
        for node in graph.nodes():
            attrs = {"x": rng.choice(X_VALUES[flavour])} if rng.random() < 0.8 else {}
            relabelled.add_node(node, labels=graph.labels(node), attrs=attrs)
        for source, target in graph.edges():
            relabelled.add_edge(source, target)
        graph = relabelled
        if flavour == "unknown":
            conditions = [OddX(), "A", OddX()]
        else:
            conditions = [P("x") >= 1, (P("x") != 2).with_label("B"), P("x") < 3]
        rng.shuffle(conditions)
        pattern = chain(*conditions[: rng.randint(2, 3)])
    return graph, pattern


#: What a node key may be.  A tuple, a str and a frozenset are
#: collections themselves: the array kernel's key column must hold each
#: as *one* object (equal-length tuples are the trap -- assigned as a
#: block they broadcast into a 2-D array).
KEY_KINDS = {
    "int": lambda i: i,
    "tuple": lambda i: ("n", i),
    "str": lambda i: f"node-{i}",
    "mixed": lambda i: (
        ("n", i), f"node-{i}", frozenset((i, -1)), i, ("a", i, "b"), (i,)
    )[i % 6],
}


def rekeyed(graph, kind):
    """``graph`` with its ``i``-th node renamed ``KEY_KINDS[kind](i)``."""
    if kind == "int":
        return graph
    name = {node: KEY_KINDS[kind](i) for i, node in enumerate(graph.nodes())}
    renamed = DataGraph()
    for node in graph.nodes():
        renamed.add_node(name[node], labels=graph.labels(node), attrs=graph.attrs(node))
    for source, target in graph.edges():
        renamed.add_edge(name[source], name[target])
    return renamed


def assert_plain_built_sets(result):
    """Nothing NumPy: dicts (lazy ones on an id-space answer) of plain
    built sets of the node keys."""
    for matches in (result.node_matches, result.edge_matches):
        assert isinstance(matches, dict)
        assert all(type(found) is set for found in matches.values())


def assert_pickles_as_plain_sets(result):
    """A pickle of an answer, read or not, is the plain decoded result:
    no payload, no closure, no NumPy."""
    shipped = pickle.dumps(result)
    assert b"numpy" not in shipped and b"IdAnswer" not in shipped
    received = pickle.loads(shipped)
    for matches in (received.node_matches, received.edge_matches):
        assert type(matches) is dict
    assert received == result and bool(received) == bool(result)


def bounded_chain(bound, *conditions):
    return chain(*conditions).bounded(default=bound)


#: Both operators over the same three labels: ``(pattern, matcher)``.
OPERATORS = {
    "match": (chain("A", "B", "C"), match),
    "bmatch": (bounded_chain(2, "A", "B", "C"), bounded_match),
}


def match_span(root):
    (span,) = [child for child in root.children if child.name == "match"]
    return span


def run_kernel(kernel, pattern, frozen, **how):
    """``evaluate`` on one kernel, checked to be the one that ran."""
    with forced_kernel(kernel), trace.root_span("query") as root:
        outcome = evaluate(pattern, frozen, **how)
    span = match_span(root)
    assert span.attrs["kernel"] == kernel
    assert span.attrs["rows"] == sum(len(src) for src, _ in (outcome[1] or {}).values())
    return outcome


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    flavour=st.sampled_from(FLAVOURS),
    keys=st.sampled_from(sorted(KEY_KINDS)),
)
def test_array_kernel_equals_set_kernel_equals_dict_engine(seed, flavour, keys):
    graph, pattern = instance(seed, flavour)
    graph = rekeyed(graph, keys)
    expected = maximum_simulation(pattern, graph)
    frozen = graph.freeze()
    outcomes = {kernel: run_kernel(kernel, pattern, frozen) for kernel in KERNELS}
    for result, _, _ in outcomes.values():
        assert_pickles_as_plain_sets(result)
    if flavour in ("empty_seed", "swept_empty"):
        assert expected is None
    if expected is None:
        for result, id_rows, id_distances in outcomes.values():
            assert not result and id_rows is None and id_distances is None
        return
    pairs = reference_edge_matches(pattern, graph, expected)
    table = frozen.node_table
    for result, id_rows, id_distances in outcomes.values():
        assert id_distances is None
        assert result.node_matches == expected
        assert result.edge_matches == pairs
        assert_plain_built_sets(result)
        assert set(id_rows) == set(pairs)
        for edge, (src, tgt) in id_rows.items():
            assert src.typecode == tgt.typecode == "q"
            assert len(src) == len(tgt) == len(pairs[edge])
            assert {(table[v], table[w]) for v, w in zip(src, tgt)} == pairs[edge]


BOUNDED_FLAVOURS = (
    "plain", "cyclic", "self_loop", "two_way", "edgeless_node",
    "empty_seed", "swept_empty", "star_chunks",
)


def bounded_instance(seed, flavour):
    """``instance`` with bounds 1-3 and ``*`` drawn onto the edges.
    ``two_way`` has twin edges into one target (one cone serves both
    when their bounds agree); random graphs this dense are full of
    cycles, so nodes reach themselves within a bound."""
    base = flavour if flavour in FLAVOURS else "plain"
    graph, pattern = instance(seed, base)
    rng = random.Random(seed + 1)
    if flavour == "swept_empty":
        # Every label is seeded, but no path of any length enters a C.
        for source, target in list(graph.edges()):
            if "C" in graph.labels(target):
                graph.remove_edge(source, target)
    bounded = BoundedPattern()
    for node in pattern.nodes():
        bounded.add_node(node, pattern.condition(node))
    star = 0.6 if flavour == "star_chunks" else 0.15
    for source, target in pattern.edges():
        bound = ANY if rng.random() < star else rng.randint(1, 3)
        bounded.add_edge(source, target, bound)
    if flavour == "star_chunks":
        bounded.add_edge(*pattern.edges()[0], ANY)
    return graph, bounded


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    flavour=st.sampled_from(BOUNDED_FLAVOURS),
    distances=st.booleans(),
    keys=st.sampled_from(sorted(KEY_KINDS)),
)
def test_bounded_array_kernel_equals_set_kernel_equals_dict_engine(
    seed, flavour, distances, keys
):
    graph, pattern = bounded_instance(seed, flavour)
    graph = rekeyed(graph, keys)
    expected, per_edge = bounded_match_with_distances(pattern, graph)
    frozen = graph.freeze()
    with pytest.MonkeyPatch.context() as patch:
        if flavour == "star_chunks":
            # Small enough that the origins of a * edge are split, down
            # to single origins whose own rows exceed it.
            patch.setattr(array_engine, "PAIR_ROW_BUDGET", 6)
        outcomes = {
            kernel: run_kernel(
                kernel, pattern, frozen, bounded=True, distances=distances
            )
            for kernel in KERNELS
        }
    for result, _, _ in outcomes.values():
        assert_pickles_as_plain_sets(result)
    if flavour in ("empty_seed", "swept_empty"):
        assert not expected
    if not expected:
        for result, id_rows, id_distances in outcomes.values():
            assert not result and id_rows is None and id_distances is None
        return
    shortest = {}
    for pairs in per_edge.values():
        for pair, hops in pairs.items():
            shortest[pair] = min(hops, shortest.get(pair, hops))
    table = frozen.node_table
    for result, id_rows, id_distances in outcomes.values():
        assert result.node_matches == expected.node_matches
        assert result.edge_matches == expected.edge_matches
        assert_plain_built_sets(result)
        assert set(id_rows) == set(expected.edge_matches)
        for edge, (src, tgt) in id_rows.items():
            assert src.typecode == tgt.typecode == "q"
            assert len(src) == len(tgt) == len(expected.edge_matches[edge])
            assert {(table[v], table[w]) for v, w in zip(src, tgt)} == (
                expected.edge_matches[edge]
            )
        if not distances:
            assert id_distances is None
            continue
        assert {
            (table[v], table[w]): hops for (v, w), hops in id_distances.items()
        } == shortest
        assert all(type(hops) is int for hops in id_distances.values())


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_node_on_a_cycle_matches_itself_at_the_cycle_length(kernel):
    # a1 -> a2 -> a3 -> a1 and a4 -> a4: within 2 edges only the
    # self-loop closes; within 3 every node also reaches itself.
    graph = DataGraph()
    for node in ("a1", "a2", "a3", "a4"):
        graph.add_node(node, labels="A")
    for edge in (("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("a4", "a4")):
        graph.add_edge(*edge)
    frozen = graph.freeze()
    for bound, loops in ((2, {"a4": 1}), (3, {"a1": 3, "a2": 3, "a3": 3, "a4": 1})):
        pattern = bounded_chain(bound, "A", "A")
        _, _, index = run_kernel(
            kernel, pattern, frozen, bounded=True, distances=True
        )
        table = frozen.node_table
        found = {(table[v], table[w]): hops for (v, w), hops in index.items()}
        assert {v: hops for (v, w), hops in found.items() if v == w} == loops
        assert found == bounded_match_with_distances(pattern, graph)[1][(0, 1)]


@needs_numpy
def test_a_star_edge_is_enumerated_in_pieces_under_the_row_budget(monkeypatch):
    # One cycle through every node: each of the 60 origins reaches all
    # 60 nodes, 3 600 pairs against a budget of 500 rows.
    graph = DataGraph()
    for i in range(60):
        graph.add_node(i, labels="A")
    for i in range(60):
        graph.add_edge(i, (i + 1) % 60)
    pattern = BoundedPattern()
    pattern.add_node("x", "A")
    pattern.add_node("y", "A")
    pattern.add_edge("x", "y", ANY)
    frozen = graph.freeze()
    monkeypatch.setattr(array_engine, "PAIR_ROW_BUDGET", 500)
    held = []
    levels = array_engine._pair_levels

    def watched(np, origins, *rest):
        found = levels(np, origins, *rest)
        if found is not None:
            held.append(sum(len(origin) for origin, _ in found))
        return found

    monkeypatch.setattr(array_engine, "_pair_levels", watched)
    result, id_rows, index = run_kernel(
        "array", pattern, frozen, bounded=True, distances=True
    )
    assert len(held) > 1 and max(held) <= 500 and sum(held) == 3600
    assert len(id_rows[("x", "y")][0]) == len(index) == 3600
    assert index[(0, 0)] == 60 and index[(0, 59)] == 59 and index[(59, 0)] == 1
    assert result == bounded_match(pattern, graph)


# ----------------------------------------------------------------------
# The array packager against ``decode_outcome``
# ----------------------------------------------------------------------
@st.composite
def packager_inputs(draw):
    """``(graph, alive, rows, id_distances)`` as the array kernels hand
    them to the packager: masks over the node ids, per-edge id columns
    whose ends are alive (no edges at all, an edge with no rows and a
    single-node graph included), and a distance per pair or ``None``."""
    n = draw(st.integers(1, 12))
    keys = draw(st.sampled_from(sorted(KEY_KINDS)))
    graph = rekeyed(random_labeled_graph(random.Random(n), n, 0), keys)
    alive = {
        u: draw(st.sets(st.integers(0, n - 1), min_size=1))
        for u in range(draw(st.integers(1, 3)))
    }
    pattern_node = st.sampled_from(sorted(alive))
    edges = draw(st.sets(st.tuples(pattern_node, pattern_node), max_size=3))
    rows = {}
    for u, u1 in sorted(edges):
        ends = st.tuples(
            st.sampled_from(sorted(alive[u])), st.sampled_from(sorted(alive[u1]))
        )
        rows[u, u1] = draw(st.lists(ends, max_size=8, unique=True))
    id_distances = None
    if draw(st.booleans()):
        pairs = sorted(set().union(*rows.values()))
        id_distances = dict(zip(pairs, draw(st.lists(
            st.integers(1, 4), min_size=len(pairs), max_size=len(pairs)
        ))))
    return graph, alive, rows, id_distances


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(inputs=packager_inputs())
def test_array_packager_equals_decode_outcome(inputs):
    import numpy as np

    graph, alive, rows, id_distances = inputs
    frozen = graph.freeze()
    n = frozen.num_nodes
    masks = {}
    for u, ids in alive.items():
        masks[u] = np.zeros(n, dtype=bool)
        masks[u][sorted(ids)] = True
    columns = {
        edge: (
            np.array([v for v, _ in pairs], dtype=np.intp),
            np.array([w for _, w in pairs], dtype=np.intp),
        )
        for edge, pairs in rows.items()
    }
    got = array_engine._package(np, frozen, masks, columns, id_distances)
    expected = decode_outcome(
        frozen,
        alive,
        {
            edge: (array("q", [v for v, _ in pairs]), array("q", [w for _, w in pairs]))
            for edge, pairs in rows.items()
        },
        id_distances=id_distances,
    )
    assert got[0] == expected[0]
    assert_plain_built_sets(got[0])
    assert got[1] == expected[1]
    assert all(
        type(column) is array and column.typecode == "q"
        for pair in got[1].values() for column in pair
    )
    assert got[2] == expected[2] and (id_distances is None or got[2] is id_distances)
    # A second packaging reads nothing new off the node table.
    keys, known = frozen.array_cache["keys"]
    before = known.copy()
    assert array_engine._package(np, frozen, masks, columns, id_distances)[0] == got[0]
    assert (known == before).all()
    assert set(np.flatnonzero(known).tolist()) == set().union(*alive.values())


# ----------------------------------------------------------------------
# The label index: label masks and label-pair edge rows
# ----------------------------------------------------------------------
@st.composite
def multi_labelled_graphs(draw):
    """A graph whose nodes carry none to all of A-C (so a node sits in
    several buckets, and D in none), an ``x`` attribute on most of them,
    and edges with self-loops and repeats drawn freely."""
    n = draw(st.integers(1, 14))
    graph = DataGraph()
    for i in range(n):
        attrs = draw(st.one_of(st.just({}), st.fixed_dictionaries({"x": st.integers(0, 3)})))
        graph.add_node(i, labels=draw(st.sets(st.sampled_from("ABC"))), attrs=attrs)
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for source, target in draw(st.lists(ends, max_size=45)):
        graph.add_edge(source, target)
    return graph


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(graph=multi_labelled_graphs(), keys=st.sampled_from(sorted(KEY_KINDS)))
def test_label_pair_rows_are_the_whole_columns_filtered_in_order(graph, keys):
    import numpy as np

    frozen = rekeyed(graph, keys).freeze()
    src, tgt = frozen.edge_columns()
    for pair in ((a, b) for a in "ABCD" for b in "ABCD"):
        has = [frozenset(frozen.label_ids(label)) for label in pair]
        expected = [(v, w) for v, w in zip(src, tgt) if v in has[0] and w in has[1]]
        sources, targets = array_engine._label_rows(np, frozen, pair)
        assert sources.dtype == targets.dtype == np.int32
        assert list(zip(sources.tolist(), targets.tolist())) == expected
        assert array_engine._label_rows(np, frozen, pair)[0] is sources  # kept
    for label in "ABCD":
        mask = array_engine._label_mask(np, frozen, label)
        assert np.flatnonzero(mask).tolist() == list(frozen.label_ids(label))


#: The conditions a pattern node may have: a label (the label-pair rows
#: serve an edge between two of them), a label with an attribute atom
#: (bounded by its label too), an attribute alone and no condition at
#: all (both read every edge).
CONDITION_KINDS = {
    "label": lambda rng: rng.choice("ABCD"),
    "label+attr": lambda rng: (P("x") >= rng.randint(0, 3)).with_label(rng.choice("ABC")),
    "attr": lambda rng: P("x") != rng.randint(0, 3),
    "true": lambda rng: TrueCondition(),
}


@settings(max_examples=100, deadline=None)
@given(
    graph=multi_labelled_graphs(),
    seed=st.integers(0, 10_000),
    kinds=st.lists(st.sampled_from(sorted(CONDITION_KINDS)), min_size=1, max_size=5),
)
def test_label_rows_kernel_equals_set_kernel_equals_dict_engine(graph, seed, kinds):
    rng = random.Random(seed)
    pattern = Pattern()
    for i, kind in enumerate(kinds):
        pattern.add_node(i, CONDITION_KINDS[kind](rng))
    for _ in range(rng.randint(0, 2 * len(kinds))):  # self-loops included
        pattern.add_edge(rng.randrange(len(kinds)), rng.randrange(len(kinds)))
    expected = maximum_simulation(pattern, graph)
    frozen = graph.freeze()
    outcomes = [run_kernel(kernel, pattern, frozen) for kernel in KERNELS]
    if expected is None:
        assert all(not result and id_rows is None for result, id_rows, _ in outcomes)
        return
    pairs = reference_edge_matches(pattern, graph, expected)
    for result, id_rows, _ in outcomes:
        assert result.node_matches == expected and result.edge_matches == pairs
    if "array" not in KERNELS:
        return
    # The array kernel's rows are the whole columns filtered by the
    # survivors, in CSR order, whichever rows its filter started from.
    _, id_rows, _ = outcomes[KERNELS.index("array")]
    alive = {u: set(map(frozen.id_of, found)) for u, found in expected.items()}
    src, tgt = frozen.edge_columns()
    for (u, u1), got in id_rows.items():
        assert list(zip(*got)) == [
            (v, w) for v, w in zip(src, tgt) if v in alive[u] and w in alive[u1]
        ]


@needs_numpy
def test_a_labelled_pattern_never_reads_the_whole_edge_columns(monkeypatch):
    graph = random_labeled_graph(random.Random(61), 60, 240)
    for node in graph.nodes():
        graph.add_node(node, attrs={"x": node % 3})
    reads, whole = [], array_engine._edge_indices

    def counted(np, snapshot):
        reads.append(snapshot)
        return whole(np, snapshot)

    monkeypatch.setattr(array_engine, "_edge_indices", counted)
    labelled = chain("A", "B", (P("x") >= 1).with_label("C"))
    frozen = graph.freeze()
    with forced_kernel("array"):
        answer = match(labelled, frozen)
        assert answer == match(labelled, graph) and answer
        assert reads == []
        # One end without a label is enough to read every edge, once
        # per run however many edges have one.
        for other in (chain("A", TrueCondition(), "C"), chain(P("x") != 1, "B", "C")):
            assert match(other, frozen) == match(other, graph)
        assert reads == [frozen, frozen]
    assert set(frozen.array_cache["label_rows"]) == {("A", "B"), ("B", "C")}


@needs_numpy
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_no_index_width_copy_of_the_edge_columns_is_kept(operator):
    import numpy as np

    graph = random_labeled_graph(random.Random(67), 60, 240)
    pattern, run = OPERATORS[operator]
    frozen = graph.freeze()
    with forced_kernel("array"):
        assert run(pattern, frozen) == run(pattern, graph)
        assert match(chain(TrueCondition(), "B"), frozen)  # reads every edge
    found, held = [frozen.array_cache], []
    while found:
        value = found.pop()
        if isinstance(value, dict):
            found += value.values()
        elif isinstance(value, tuple):
            found += value
        else:
            held.append(value)
    assert held and all(isinstance(value, np.ndarray) for value in held)
    assert not [
        value for value in held
        if value.dtype == np.intp and len(value) == frozen.num_edges
    ]
    # Cached rows are int32 (8 bytes a row) and masks 1 byte a node.
    for pair in frozen.array_cache.get("label_rows", {}).values():
        assert all(column.dtype == np.int32 for column in pair)
    for mask in frozen.array_cache["label_masks"].values():
        assert mask.dtype == bool and len(mask) == frozen.num_nodes


# ----------------------------------------------------------------------
# The per-snapshot caches (label masks, label-pair rows, key column)
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("shared", [False, True])
def test_array_caches_are_per_snapshot(operator, shared):
    graph = rekeyed(random_labeled_graph(random.Random(13), 30, 90), "tuple")
    pattern, run = OPERATORS[operator]
    old = frozen_as(graph, shared)
    assert old.array_cache == {}
    with forced_kernel("array"):
        before = run(pattern, old)
    assert before == run(pattern, graph) and before
    # One mask per label; label-pair rows for the plain rows step only
    # (a bounded cone reads every edge).
    rows = {"match": {("A", "B"), ("B", "C")}, "bmatch": set()}[operator]
    assert set(old.array_cache) == {"label_masks", "keys"} | ({"label_rows"} if rows else set())
    assert set(old.array_cache["label_masks"]) == {"A", "B", "C"}
    assert set(old.array_cache.get("label_rows", ())) == rows
    old_keys = old.array_cache["keys"][0]
    old_masks = old.array_cache["label_masks"]

    # A batch (edges to and from an appended, bare node) ...
    a_source = next(v for v in graph.nodes() if "A" in graph.labels(v))
    c_target = next(v for v in graph.nodes() if "C" in graph.labels(v))
    delta = Delta().insert(a_source, ("n", "appended")).insert(("n", "appended"), c_target)
    apply_ops(graph, delta)
    refreshed = old.applied(delta.ops)
    assert refreshed.extends_token == old.snapshot_token
    # ... then labels, which no batch can express: a rebuilt snapshot.
    snapshots = [refreshed]
    for step in ("refreshed", "relabelled"):
        new = snapshots[-1]
        labelled = step == "relabelled"
        assert new.array_cache == {}  # never the predecessor's
        with forced_kernel("array"):
            after = run(pattern, new)
        assert after == run(pattern, graph)
        assert (("n", "appended") in after.node_matches[1]) == labelled
        assert new.array_cache["keys"][0] is not old_keys
        assert len(new.array_cache["keys"][0]) == new.num_nodes == old.num_nodes + 1
        masks = new.array_cache["label_masks"]
        assert masks is not old_masks and len(masks["B"]) == new.num_nodes
        assert masks["B"][new.id_of(("n", "appended"))] == labelled
        if not labelled:
            graph.add_node(("n", "appended"), labels="B")
            graph.add_node(c_target, labels="A")
            snapshots.append(frozen_as(graph, shared))
            assert snapshots[-1].extends_token is None
    assert "A" in snapshots[-1].labels(c_target)
    assert "A" not in refreshed.labels(c_target)
    # The first snapshot object still answers for the graph it froze,
    # from the arrays it built then.
    with forced_kernel("array"):
        assert run(pattern, old) == before
    assert old.array_cache["keys"][0] is old_keys and len(old_keys) == old.num_nodes
    assert old.array_cache["label_masks"] is old_masks
    assert len(old_masks["B"]) == old.num_nodes


@needs_numpy
@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("shared", [False, True])
def test_array_caches_are_never_saved(operator, shared, tmp_path):
    # A save writes the same files before and after the kernel filled
    # the cache, and a load starts with none.  (Tuple
    # keys: a saved key is JSON's, so "mixed"'s frozensets cannot be.)
    graph = rekeyed(random_labeled_graph(random.Random(17), 30, 90), "tuple")
    pattern, run = OPERATORS[operator]
    frozen = frozen_as(graph, shared)
    frozen.edge_columns()  # plain ``array('i')`` columns, never saved either
    SnapshotStore.save(tmp_path / "cold", frozen)
    with forced_kernel("array"):
        expected = run(pattern, frozen)
    assert expected and frozen.array_cache
    SnapshotStore.save(tmp_path / "warm", frozen)
    saved = {
        side: {
            name: Path(live_directory(tmp_path / side), name).read_bytes()
            for name in snapshot_files(tmp_path / side) if name != "manifest.json"
        }
        for side in ("cold", "warm")
    }
    assert saved["warm"] == saved["cold"]
    assert not any(b"numpy" in blob for blob in saved["warm"].values())
    received = SnapshotStore.load(tmp_path / "warm").graph
    assert received.array_cache == {}
    with forced_kernel("array"):
        assert run(pattern, received) == expected
    wanted = {"label_masks", "keys"} | ({"label_rows"} if operator == "match" else set())
    assert set(received.array_cache) == set(frozen.array_cache) == wanted


@needs_numpy
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_attached_snapshot_decodes_only_the_ids_an_answer_names(operator, monkeypatch):
    from repro.graph.compact import CompactGraph

    graph = rekeyed(random_labeled_graph(random.Random(19), 40, 120), "tuple")
    pattern, run = OPERATORS[operator]
    expected = run(pattern, graph)
    named = set().union(*expected.node_matches.values())
    assert 0 < len(named) < graph.num_nodes
    loaded = attached(graph)
    decoded = []

    class CountedTable:
        def __init__(self, snapshot):
            self.table = snapshot._nodes

        def __getitem__(self, i):
            decoded.append(i)
            return self.table[i]

    monkeypatch.setattr(CompactGraph, "node_table", property(CountedTable))
    with forced_kernel("array"):
        assert run(pattern, loaded) == expected
        # Each id at most once, and no id the answer does not name.
        assert len(decoded) == len(set(decoded)) == len(named)
        assert set(map(loaded._nodes.__getitem__, decoded)) == named
        del decoded[:]
        assert run(pattern, loaded) == expected
        assert decoded == []
        # Another pattern decodes only what is new to the snapshot.
        others = {"match": chain("C", "A"), "bmatch": bounded_chain(2, "C", "A")}
        other = others[operator]
        assert run(other, loaded) == run(other, graph)
        assert len(decoded) == len(set(decoded)) and not set(decoded) & {
            loaded.id_of(key) for key in named
        }


@needs_numpy
def test_concurrent_matches_share_one_snapshots_caches():
    """Server threads evaluate on one snapshot at once: the caches fill
    under races (a lost entry is rebuilt, a key decoded twice is the
    same key) and every answer is still the right one."""
    import sys
    import threading

    graph = rekeyed(random_labeled_graph(random.Random(29), 60, 240), "tuple")
    patterns = [chain("A", "B", "C"), chain("C", "A"), bounded_chain(2, "B", "C", "A")]
    runs = [match, match, bounded_match]
    expected = [run(pattern, graph) for run, pattern in zip(runs, patterns)]
    assert all(expected)
    wrong = []

    def worker(snapshot, offset, start):
        start.wait(timeout=10)
        for i in range(offset, offset + 6):
            k = i % len(patterns)
            if runs[k](patterns[k], snapshot) != expected[k]:
                wrong.append((offset, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_kernel("array"):
            for _ in range(5):
                # A fresh attachment each round: empty caches, lazy table.
                snapshot = attached(graph)
                start = threading.Event()
                threads = [
                    threading.Thread(target=worker, args=(snapshot, offset, start))
                    for offset in range(6)
                ]
                for thread in threads:
                    thread.start()
                start.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                keys, known = snapshot.array_cache["keys"]
                table = snapshot.node_table
                assert all(keys[i] == table[i] for i in range(len(keys)) if known[i])
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_engine_answers_are_plain_built_sets(monkeypatch):
    from repro.engine import QueryEngine
    from repro.views.storage import ViewSet

    graph = rekeyed(random_labeled_graph(random.Random(23), 30, 120), "str")
    engine = QueryEngine(ViewSet(), graph=graph, answer_cache_size=0)
    for kernel in KERNELS:
        for pattern, run in OPERATORS.values():
            with forced_kernel(kernel):
                result = engine.answer(pattern)
            assert result.stats.strategy == "direct"
            assert result == run(pattern, graph) and result
            assert_plain_built_sets(result)
            for found in result.node_matches.values():
                assert all(type(key) is str for key in found)


# ----------------------------------------------------------------------
# The lazy answer: node keys are decoded on first read, per key
# ----------------------------------------------------------------------
def built(matches):
    """How many of a result map's sets exist as node-key sets yet."""
    return dict.__len__(matches)


@pytest.mark.parametrize("kernel", KERNELS)
def test_lazy_kernel_answer_decodes_only_what_is_read(kernel, monkeypatch):
    from repro.engine import QueryEngine
    from repro.graph.compact import CompactGraph
    from repro.views.storage import ViewSet

    graph = rekeyed(random_labeled_graph(random.Random(31), 40, 160), "tuple")
    pattern = chain("A", "B", "C")
    expected = match(pattern, graph)
    assert expected
    reads = []

    class CountedTable:
        """The decoder: every node-key read off the snapshot's table."""

        def __init__(self, snapshot):
            self.table = snapshot._nodes

        def __getitem__(self, i):
            reads.append(i)
            return self.table[i]

    monkeypatch.setattr(CompactGraph, "node_table", property(CountedTable))
    engine = QueryEngine(ViewSet(), graph=graph, answer_cache_size=0)
    with forced_kernel(kernel), trace.root_span("query") as root:
        result = engine.answer(pattern)
    nodes, edges = result.node_matches, result.edge_matches
    # Answering -- traced -- its stats and every count decode nothing.
    spans, decoded = [root], []
    while spans:
        span = spans.pop()
        spans += span.children
        decoded += [span.attrs] if span.name == "decode" else []
    assert decoded == [
        {"rows": expected.result_size, "nodes": expected.total_node_matches()}
    ]
    assert result.stats.strategy == "direct" and bool(result)
    assert result.result_size == expected.result_size
    assert result.total_node_matches() == expected.total_node_matches()
    assert len(edges) == 2 and len(nodes) == 3 and list(edges) == pattern.edges()
    assert (0, 1) in edges and (1, 0) not in edges and 2 in nodes
    assert reads == [] and built(nodes) == built(edges) == 0
    # One edge decodes that edge, off its end nodes' ids alone.
    assert edges[(0, 1)] == expected.edge_matches[(0, 1)]
    assert built(edges) == 1 and built(nodes) == 0
    frozen = engine.snapshot()
    ends = {frozen.id_of(v) for u in (0, 1) for v in expected.node_matches[u]}
    assert reads and set(reads) <= ends
    # Everything read equals the dict backend; the id payload is dropped.
    assert not (edges != expected.edge_matches or nodes != expected.node_matches)
    assert nodes == expected.node_matches and edges == expected.edge_matches
    assert edges._lazy is None and nodes._lazy is None
    assert result.result_size == expected.result_size
    assert_plain_built_sets(result)


@pytest.mark.parametrize("kernel", KERNELS)
def test_lazy_kernel_answer_counts_an_in_place_merge(kernel):
    # A caller merging two answers: the first one's sets grow in place
    # with ``|=``, and the counts follow the grown sets from then on.
    pattern = chain("A", "B", "C")
    graphs = [
        random_labeled_graph(random.Random(41), 40, 160),
        rekeyed(random_labeled_graph(random.Random(43), 40, 160), "str"),
    ]
    expected = [match(pattern, g) for g in graphs]
    assert all(expected)
    with forced_kernel(kernel):
        first, second = (match(pattern, g.freeze()) for g in graphs)
    union = {
        e: expected[0].edge_matches[e] | expected[1].edge_matches[e]
        for e in pattern.edges()
    }
    merged, kept = pattern.edges()
    first.edge_matches[merged] |= second.edge_matches[merged]
    assert built(first.edge_matches) == 1
    assert first.result_size == len(union[merged]) + len(expected[0].edge_matches[kept])
    first.edge_matches[kept] |= second.edge_matches[kept]
    for u, found in second.node_matches.items():
        first.node_matches[u] |= found
    assert first.result_size == sum(map(len, union.values()))
    assert first.total_node_matches() == sum(
        len(expected[0].node_matches[u] | expected[1].node_matches[u])
        for u in pattern.nodes()
    )
    assert first.edge_matches == union


@pytest.mark.parametrize("kernel", KERNELS)
def test_lazy_kernel_answer_read_by_threads_at_once(kernel):
    """Threads may decode one set at once; each gets the same set, and
    the right one, with no lock on the read path."""
    import sys
    import threading

    graph = rekeyed(random_labeled_graph(random.Random(47), 60, 240), "tuple")
    pattern = chain("A", "B", "C")
    expected = match(pattern, graph)
    assert expected
    readers = 4
    seen = []

    def read(result, start):
        start.wait(timeout=10)
        seen.append((
            {e: result.edge_matches[e] for e in result.edge_matches},
            {u: result.node_matches[u] for u in result.node_matches},
        ))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            # A fresh attachment each round: a cold key column, a lazy table.
            snapshot = attached(graph)
            with forced_kernel(kernel):
                result = match(pattern, snapshot)
            start = threading.Barrier(readers)
            threads = [
                threading.Thread(target=read, args=(result, start))
                for _ in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            (edges, nodes), *others = seen[-readers:]
            for edges_again, nodes_again in others:
                assert all(edges[e] is edges_again[e] for e in edges)
                assert all(nodes[u] is nodes_again[u] for u in nodes)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 5 * readers
    assert all(
        edges == expected.edge_matches and nodes == expected.node_matches
        for edges, nodes in seen
    )


def check_edge_columns_are_rebuilt_after_a_refresh(operator, shared):
    rng = random.Random(21)
    graph = random_labeled_graph(rng, 30, 90)
    pattern, match = OPERATORS[operator]
    old = frozen_as(graph, shared)
    with forced_kernel("array"):
        assert match(pattern, old) == match(pattern, graph)
    assert old._edge_columns is not None

    present = next(iter(graph.edges()))
    absent = next(
        (v, w) for v in graph.nodes() for w in graph.nodes()
        if not graph.has_edge(v, w)
    )
    b_target = next(v for v in graph.nodes() if "C" in graph.labels(v))
    a_source = next(v for v in graph.nodes() if "A" in graph.labels(v))
    delta = (
        Delta()
        .insert(*absent)
        .delete(*present)
        .insert(a_source, "appended")
        .insert("appended", b_target)
    )
    apply_ops(graph, delta)
    new = old.applied(delta.ops)
    assert new.extends_token == old.snapshot_token  # patched, not rebuilt
    assert new.num_nodes == old.num_nodes + 1
    assert new._edge_columns is None
    with forced_kernel("array"):
        refreshed = match(pattern, new)
    assert refreshed == match(pattern, graph)
    src, tgt = new.edge_columns()
    assert len(src) == len(tgt) == graph.num_edges
    assert set(zip(src, tgt)) == {
        (new.id_of(v), new.id_of(w)) for v, w in graph.edges()
    }
    # The predecessor still answers for the graph it froze.
    assert len(old.edge_columns()[0]) == old.num_edges


@needs_numpy
@pytest.mark.parametrize("shared", [False, True])
def test_edge_columns_are_rebuilt_after_a_refresh(shared):
    check_edge_columns_are_rebuilt_after_a_refresh("match", shared)


@needs_numpy
@pytest.mark.parametrize("shared", [False, True])
def test_bounded_kernel_sees_rebuilt_edge_columns_after_a_refresh(shared):
    check_edge_columns_are_rebuilt_after_a_refresh("bmatch", shared)


def check_attached_snapshot_reads_its_columns_off_the_segment(operator):
    """An attached snapshot (loaded from disk) decodes
    adjacency rows on first touch; the array kernels must not touch
    (and so cache) any of them."""
    rng = random.Random(34)
    graph = random_labeled_graph(rng, 40, 140)
    pattern, match = OPERATORS[operator]
    base = graph.freeze()
    first, last = list(graph.nodes())[0], list(graph.nodes())[-1]
    patched = base.applied(
        Delta()
        .delete(*next(iter(graph.edges())))
        .insert(first, "appended")
        .insert("appended", last)
        .insert(last, first)
        .ops
    )
    assert patched.extends_token == base.snapshot_token and patched._patch["succ"]
    for creator in (base, patched):
        loaded = attached(creator)
        assert loaded.edge_columns() == creator.edge_columns()
        assert loaded.edge_columns()[0].typecode == "i"
        with forced_kernel("array"):
            assert match(pattern, loaded) == match(pattern, creator)
        # The patch's rows only: none was decoded off the tables.
        assert dict(loaded.succ_rows) == (loaded._patch or {"succ": {}})["succ"]


@needs_numpy
def test_attached_snapshot_reads_its_columns_off_the_segment():
    check_attached_snapshot_reads_its_columns_off_the_segment("match")


@needs_numpy
def test_bounded_kernel_reads_an_attached_snapshots_columns_off_the_segment():
    check_attached_snapshot_reads_its_columns_off_the_segment("bmatch")


def check_dispatch_is_by_edge_count_and_numpy_alone(operator, monkeypatch):
    rng = random.Random(5)
    graph = random_labeled_graph(rng, 40, 120)
    frozen = graph.freeze()
    pattern, match = OPERATORS[operator]

    def kernel_of(target):
        with trace.root_span("query") as root:
            match(pattern, target)
        span = match_span(root)
        assert span.attrs.get("bounded", False) == (operator == "bmatch")
        return span.attrs["kernel"]

    assert frozen.num_edges < array_engine.ARRAY_MIN_EDGES
    assert kernel_of(frozen) == "sets"
    monkeypatch.setattr(array_engine, "ARRAY_MIN_EDGES", frozen.num_edges)
    assert kernel_of(frozen) == "array"
    monkeypatch.setattr(array_engine, "ARRAY_MIN_EDGES", frozen.num_edges + 1)
    assert kernel_of(frozen) == "sets"
    monkeypatch.setattr(array_engine, "ARRAY_MIN_EDGES", 0)
    with forced_kernel("sets"):
        assert kernel_of(frozen) == "sets"


@needs_numpy
def test_dispatch_is_by_edge_count_and_numpy_alone(monkeypatch):
    check_dispatch_is_by_edge_count_and_numpy_alone("match", monkeypatch)


@needs_numpy
def test_bounded_dispatch_is_by_edge_count_and_numpy_alone(monkeypatch):
    check_dispatch_is_by_edge_count_and_numpy_alone("bmatch", monkeypatch)


def phases(span):
    return [(child.name, child.attrs) for child in span.children]


#: One span per phase under ``match``, the same on every kernel, for
#: the two span tests' answer (a1, b1, c survive; two pairs).
SURVIVING_PHASES = [
    ("seed", {"nodes": 3, "candidates": 5}),
    ("sweep", {"nodes": 3}),
    ("decode", {"rows": 2, "nodes": 3}),
]


@pytest.mark.parametrize("kernel", KERNELS)
def test_match_span_and_counters_mean_the_same_on_both_kernels(kernel):
    # a1 -> b1 -> c, a2 -> b2: b2 has no C successor, so one sweep of
    # pattern node B removes it and one sweep of A removes a2.
    graph = DataGraph()
    for node in ("a1", "a2", "b1", "b2", "c"):
        graph.add_node(node, labels=node[0].upper())
    for edge in (("a1", "b1"), ("a2", "b2"), ("b1", "c")):
        graph.add_edge(*edge)
    frozen = graph.freeze()
    with fresh_registry() as registry, forced_kernel(kernel):
        with trace.root_span("query") as root:
            result = match(chain("A", "B", "C"), frozen)
    assert result.edge_matches == {(0, 1): {("a1", "b1")}, (1, 2): {("b1", "c")}}
    (span,) = root.children
    assert span.name == "match" and span.attrs["kernel"] == kernel
    # The rows that survived: the answer's pairs, whichever kernel ran.
    assert span.attrs["rows"] == 2
    assert phases(span) == SURVIVING_PHASES
    counter = lambda name: registry.counter(name).value  # noqa: E731
    assert counter("repro_sim_seed_candidates_total") == 5
    assert counter("repro_sim_seed_scanned_total") == 0
    assert counter("repro_sim_batches_total") == 2
    assert counter("repro_sim_removals_total") == 2


@pytest.mark.parametrize("kernel", KERNELS)
def test_bounded_span_and_counters_mean_the_same_on_both_kernels(kernel):
    # a1 -> x -> b1 -> c and a2 -> b2: within 2 edges b2 reaches no C,
    # so the cut of B removes it and the re-evaluated (A, B) removes a2,
    # which had reached only b2.
    graph = DataGraph()
    for node in ("a1", "a2", "b1", "b2", "c", "x"):
        graph.add_node(node, labels=node[0].upper())
    for edge in (("a1", "x"), ("x", "b1"), ("a2", "b2"), ("b1", "c")):
        graph.add_edge(*edge)
    frozen = graph.freeze()
    with fresh_registry() as registry, forced_kernel(kernel):
        with trace.root_span("query") as root:
            result = bounded_match(bounded_chain(2, "A", "B", "C"), frozen)
    assert result.edge_matches == {(0, 1): {("a1", "b1")}, (1, 2): {("b1", "c")}}
    (span,) = root.children
    assert span.name == "match"
    assert span.attrs == {"kernel": kernel, "bounded": True, "rows": 2}
    assert phases(span) == SURVIVING_PHASES
    counter = lambda name: registry.counter(name).value  # noqa: E731
    assert counter("repro_sim_seed_candidates_total") == 5
    assert counter("repro_sim_seed_scanned_total") == 0
    # (A, B) passes, (B, C) cuts b2, (A, B) again cuts a2.
    assert counter("repro_bounded_edge_evals_total") == 3
    assert counter("repro_bounded_shrinks_total") == 2
    with fresh_registry() as registry, forced_kernel(kernel):
        with trace.root_span("query") as root:
            assert not bounded_match(bounded_chain(1, "A", "B", "C"), frozen)
    assert root.children[0].attrs == {"kernel": kernel, "bounded": True, "rows": 0}
    # A failed sweep says so and nothing is decoded.
    assert phases(root.children[0])[1:] == [("sweep", {"nodes": 0})]
    # (A, B) cuts a1, (B, C) cuts b2; (A, B) again finds nothing left.
    assert counter("repro_bounded_edge_evals_total") == 3
    assert counter("repro_bounded_shrinks_total") == 3


def check_materialized_payload_rows_come_straight_from_the_kernel(kernel, pattern):
    rng = random.Random(8)
    graph = random_labeled_graph(rng, 30, 120)
    definition = ViewDefinition("v", pattern)
    frozen = graph.freeze()
    with forced_kernel(kernel):
        view = materialize(definition, frozen)
    edge_matches, distances = dict_extension(definition, graph)
    assert view.edge_matches == edge_matches
    assert view.distances == distances
    table = frozen.node_table
    for edge, pairs in view.edge_matches.items():
        src, tgt = view.compact.pair_rows(edge)
        assert {(table[v], table[w]) for v, w in zip(src, tgt)} == pairs
        assert len(src) == len(pairs)


@pytest.mark.parametrize("kernel", KERNELS)
def test_materialized_payload_rows_come_straight_from_the_kernel(kernel):
    check_materialized_payload_rows_come_straight_from_the_kernel(
        kernel, chain("A", "B", "A")
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_bounded_payload_rows_and_distances_come_straight_from_the_kernel(kernel):
    check_materialized_payload_rows_come_straight_from_the_kernel(
        kernel, bounded_chain(2, "A", "B", "A")
    )
