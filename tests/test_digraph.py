"""Unit tests for the DataGraph substrate."""

import pytest

from repro.graph import DataGraph


def small_graph():
    g = DataGraph()
    g.add_node(1, labels="A", attrs={"x": 1})
    g.add_node(2, labels=["B", "C"])
    g.add_node(3, labels="B")
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(1, 3)
    return g


class TestConstruction:
    def test_empty(self):
        g = DataGraph()
        assert len(g) == 0
        assert g.num_edges == 0
        assert g.size == 0

    def test_add_node_labels_string(self):
        g = DataGraph()
        g.add_node("n", labels="A")
        assert g.labels("n") == frozenset({"A"})

    def test_add_node_labels_iterable(self):
        g = DataGraph()
        g.add_node("n", labels=["A", "B"])
        assert g.labels("n") == frozenset({"A", "B"})

    def test_add_node_merges_labels(self):
        g = DataGraph()
        g.add_node("n", labels="A")
        g.add_node("n", labels="B")
        assert g.labels("n") == frozenset({"A", "B"})

    def test_add_node_merges_attrs(self):
        g = DataGraph()
        g.add_node("n", attrs={"x": 1})
        g.add_node("n", attrs={"y": 2})
        assert g.attrs("n") == {"x": 1, "y": 2}

    def test_add_edge_creates_nodes(self):
        g = DataGraph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_add_edge_idempotent(self):
        g = DataGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.num_edges == 1

    def test_constructor_bulk(self):
        g = DataGraph(
            nodes=[("a", "A", None), ("b", "B", {"k": 1})],
            edges=[("a", "b")],
        )
        assert g.num_nodes == 2
        assert g.attrs("b") == {"k": 1}

    def test_size(self):
        g = small_graph()
        assert g.size == 3 + 3


class TestMutation:
    def test_remove_edge(self):
        g = small_graph()
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 2
        assert 1 not in g.predecessors(2)

    def test_remove_edge_missing_raises(self):
        g = small_graph()
        with pytest.raises(KeyError):
            g.remove_edge(3, 1)

    def test_remove_node(self):
        g = small_graph()
        g.remove_node(2)
        assert 2 not in g
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_node_missing_raises(self):
        g = DataGraph()
        with pytest.raises(KeyError):
            g.remove_node("ghost")


class TestInspection:
    def test_degrees(self):
        g = small_graph()
        assert g.out_degree(1) == 2
        assert g.in_degree(3) == 2
        assert g.in_degree(1) == 0

    def test_successors_predecessors(self):
        g = small_graph()
        assert g.successors(1) == {2, 3}
        assert g.predecessors(3) == {1, 2}

    def test_edges_iteration(self):
        g = small_graph()
        assert set(g.edges()) == {(1, 2), (2, 3), (1, 3)}

    def test_nodes_with_label(self):
        g = small_graph()
        assert set(g.nodes_with_label("B")) == {2, 3}
        assert set(g.nodes_with_label("Z")) == set()

    def test_repr(self):
        assert "nodes=3" in repr(small_graph())


class TestTraversal:
    def test_descendants_within_one(self):
        g = small_graph()
        assert g.descendants_within(1, 1) == {2: 1, 3: 1}

    def test_descendants_within_two(self):
        g = DataGraph(edges=[(1, 2), (2, 3), (3, 4)])
        assert g.descendants_within(1, 2) == {2: 1, 3: 2}

    def test_descendants_within_zero(self):
        g = small_graph()
        assert g.descendants_within(1, 0) == {}

    def test_descendants_cycle_includes_self(self):
        g = DataGraph(edges=[(1, 2), (2, 1)])
        assert g.descendants_within(1, 2) == {2: 1, 1: 2}

    def test_self_loop(self):
        g = DataGraph(edges=[(1, 1)])
        assert g.descendants_within(1, 3) == {1: 1}


class TestCopy:
    def test_copy_independent(self):
        g = small_graph()
        h = g.copy()
        h.add_edge(3, 1)
        assert not g.has_edge(3, 1)

    def test_copy_shares_attribute_dicts(self):
        # Attribute dicts are read-only: add_node installs a new dict on
        # the clone, never writes into the shared one.
        g = small_graph()
        before = g.attrs(1)
        h = g.copy()
        assert h.attrs(1) is before
        h.add_node(1, attrs={"y": 2})
        assert g.attrs(1) is before and before == {"x": 1}
        assert h.attrs(1) == {"x": 1, "y": 2}

    def test_copy_equal_structure(self):
        g = small_graph()
        h = g.copy()
        assert set(h.edges()) == set(g.edges())
        assert h.labels(2) == g.labels(2)


class TestSharedAttrs:
    """A snapshot holds the graph's own attribute dicts; the graph
    replaces a node's dict on change, so neither side sees the other's
    future."""

    def test_a_snapshots_attrs_is_the_graphs_dict(self):
        g = small_graph()
        frozen = g.freeze()
        for v in g.nodes():
            assert frozen.attrs(v) is g.attrs(v)
        g.add_node(4, labels="A", attrs={"x": 4})
        g.add_edge(4, 1)
        refrozen = g.freeze()
        assert refrozen is not frozen and refrozen.extends_token is None  # encoded afresh
        for v in g.nodes():
            assert refrozen.attrs(v) is g.attrs(v)

    def test_add_node_attrs_reaches_the_next_snapshot_only(self):
        from repro.graph.conditions import P

        g = small_graph()
        old = g.freeze()
        before = old.attrs(1)
        ones = P("x") == 1
        assert old.candidate_ids(ones) == {old.id_of(1)}  # column built
        g.add_node(1, attrs={"x": 2, "y": 3})
        assert old.attrs(1) is before and before == {"x": 1}
        assert old.candidate_ids(ones) == {old.id_of(1)}
        new = g.freeze()
        assert new.attrs(1) == {"x": 2, "y": 3} and new.attrs(1) is g.attrs(1)
        assert new.candidate_ids(ones) == set()


#: Methods that change a dict in place.
_DICT_MUTATORS = {
    "update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__",
}


def _attrs_dict_mutations(tree):
    """``(line, text)`` of every in-place change to a dict read through
    ``.attrs(...)`` / ``.attrs_of(...)`` / ``._attrs[...]``, directly or
    through a name bound to one."""
    import ast

    def is_read(node, names):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in ("attrs", "attrs_of")
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            return node.value.attr == "_attrs"
        return isinstance(node, ast.Name) and node.id in names

    names = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_read(node.value, ())
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            hit = is_read(node.value, names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in _DICT_MUTATORS and is_read(node.func.value, names)
        else:
            hit = False
        if hit:
            yield node.lineno, ast.unparse(node)


def test_no_source_mutates_an_attrs_dict_in_place():
    import ast
    from pathlib import Path

    import repro

    src = Path(repro.__file__).resolve().parent
    found = [
        f"{path.relative_to(src).as_posix()}:{line}: {text}"
        for path in sorted(src.rglob("*.py"))
        for line, text in _attrs_dict_mutations(ast.parse(path.read_text()))
    ]
    assert not found, (
        "attribute dicts are shared with snapshots and read-only; change "
        f"them through DataGraph.add_node(v, attrs=...): {found}"
    )


def test_the_attrs_guard_sees_each_mutation_form():
    import ast

    source = "\n".join([
        "g.attrs(v)['x'] = 1",
        "self._attrs[node].update(attrs)",
        "d = g.attrs(v)",
        "del d['x']",
        "snapshot.attrs_of(i).setdefault('y', 0)",
        "fresh = {**g.attrs(v), 'x': 1}",  # a copy: fine
        "value = g.attrs(v)['x']",  # a read: fine
    ])
    found = [line for line, _ in _attrs_dict_mutations(ast.parse(source))]
    assert found == [1, 2, 4, 5]
