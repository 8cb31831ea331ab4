"""Tests for MatchResult, its lazy maps and graph statistics."""

import copy
import operator
import pickle

import pytest

from repro.graph.stats import graph_stats, size_fraction
from repro.simulation.result import LazyMap, MatchResult, edge_matches_from_nodes

from helpers import build_graph


class TestMatchResult:
    def make(self):
        return MatchResult(
            node_matches={"a": {1}, "b": {2, 3}},
            edge_matches={("a", "b"): {(1, 2), (1, 3)}},
        )

    def test_bool(self):
        assert self.make()
        assert not MatchResult.empty()

    def test_sizes(self):
        result = self.make()
        assert result.result_size == 2
        assert result.total_node_matches() == 3

    def test_accessors(self):
        result = self.make()
        assert result.matches_of("a") == {1}
        assert result.matches_of("ghost") == set()
        assert result.edge_matches_of(("a", "b")) == {(1, 2), (1, 3)}
        assert result.edge_matches_of(("x", "y")) == set()

    def test_relation(self):
        assert self.make().as_relation() == {("a", 1), ("b", 2), ("b", 3)}

    def test_equality(self):
        assert self.make() == self.make()
        assert self.make() != MatchResult.empty()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.make())

    def test_table_and_pretty(self):
        result = self.make()
        table = result.to_table()
        assert table[0][0] == ("a", "b")
        assert "a -> b" in result.pretty()

    def test_repr(self):
        assert "pairs=2" in repr(self.make())
        assert repr(MatchResult.empty()) == "MatchResult(empty)"

    def test_edge_matches_from_nodes(self):
        g = build_graph({1: "A", 2: "B", 3: "B"}, [(1, 2), (1, 3), (2, 3)])
        node_matches = {"a": {1}, "b": {2, 3}}
        em = edge_matches_from_nodes([("a", "b")], node_matches, g.successors)
        assert em[("a", "b")] == {(1, 2), (1, 3)}


# ----------------------------------------------------------------------
# LazyMap: every dict method behaves as on the plain dict it stands for
# ----------------------------------------------------------------------
KEYS = ("a", "b", "c")


def plain():
    return {key: {key, key * 2} for key in KEYS}


def lazy(state):
    result = LazyMap(KEYS, lambda key: {key, key * 2}, lambda key: 2)
    if state == "half-read":
        result["b"]
    return result


def contents(x):
    """A comparable form of whatever a dict method returned."""
    if isinstance(x, dict):
        return ("dict", sorted((repr(k), sorted(v) if isinstance(v, set) else v)
                               for k, v in x.items()))
    if isinstance(x, (type({}.keys()), type({}.values()), type({}.items()))) or (
        type(x).__name__.endswith("iterator")
    ):
        return ("seq", sorted(map(repr, x)))
    return x


#: name -> what the call does; each runs on a fresh lazy map and a fresh
#: plain dict, and both the return value and the map afterwards must agree.
DICT_CALLS = {
    "clear": lambda m: m.clear(),
    "copy": lambda m: m.copy(),
    "fromkeys": lambda m: m.fromkeys(["x", "y"], 0),
    "get": lambda m: (m.get("b"), m.get("a"), m.get("zz", 7)),
    "items": lambda m: m.items(),
    "keys": lambda m: m.keys(),
    "pop": lambda m: (m.pop("c"), m.pop("zz", None)),
    "setdefault": lambda m: (m.setdefault("a", "x"), m.setdefault("new", {9})),
    "update": lambda m: m.update({"a": {0}, "d": {1}}, e={2}),
    "values": lambda m: m.values(),
    "__contains__": lambda m: ("a" in m, "zz" in m),
    "__delitem__": lambda m: m.__delitem__("a"),
    "__eq__": lambda m: (m == plain(), plain() == m),
    "__getitem__": lambda m: (m["c"], m["a"]),
    "__ior__": lambda m: operator.ior(m, {"z": {3}}),
    "__iter__": lambda m: iter(m),
    "__len__": lambda m: len(m),
    "__ne__": lambda m: (m != plain(), {} != m),
    "__or__": lambda m: m | {"z": {3}},
    "__repr__": lambda m: eval(repr(m)),
    "__reversed__": lambda m: reversed(m),
    "__ror__": lambda m: {"z": {3}} | m,
    "__setitem__": lambda m: (m.__setitem__("a", {5}), m.__setitem__("n", {6})),
    "copy.copy": lambda m: copy.copy(m),
    "copy.deepcopy": lambda m: copy.deepcopy(m),
    "dict()": lambda m: dict(m),
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
    "splat": lambda m: {**m},
}


def test_lazy_map_calls_cover_every_public_dict_method():
    public = {name for name in dir(dict) if not name.startswith("_")}
    assert public - {"popitem"} <= set(DICT_CALLS)


@pytest.mark.parametrize("state", ["unread", "half-read"])
@pytest.mark.parametrize("name", sorted(DICT_CALLS))
def test_lazy_map_dict_method_equals_plain_dict(name, state):
    m, reference = lazy(state), plain()
    assert contents(DICT_CALLS[name](m)) == contents(DICT_CALLS[name](reference))
    assert len(m) == len(reference) and set(m) == set(reference)
    assert all(key in m for key in reference) and "zz" not in m
    assert {key: m[key] for key in m} == reference
    assert m == reference and m.get("zz") is None
    with pytest.raises(KeyError):
        m["zz"]


@pytest.mark.parametrize("state", ["unread", "half-read"])
def test_lazy_map_popitem_takes_a_real_item(state):
    # The item a plain dict pops is its newest; the lazy map's newest is
    # whichever it built last, so only the contract is compared.
    m, reference = lazy(state), plain()
    key, value = m.popitem()
    assert reference.pop(key) == value
    assert len(m) == 2 and set(m) == set(reference) and m == reference
    while m:
        m.popitem()
    assert len(m) == 0 and list(m) == [] and not m
    with pytest.raises(KeyError):
        m.popitem()


def test_lazy_map_builds_only_what_it_must():
    m = lazy("unread")
    assert len(m) == 3 and "a" in m and list(m) == list(KEYS)
    assert m.get("a") == {"a", "aa"}
    assert dict.__len__(m) == 1
    m["b"] = {"mine"}  # a known key: set in place, nothing else built
    assert dict.__len__(m) == 2 and m["b"] == {"mine"}
    assert MatchResult({}, m).result_size == 2 + 1 + 2  # counted, unbuilt
    m.setdefault("new", set())
    assert m._lazy is None and len(m) == 4 and m["c"] == {"c", "cc"}


class TestGraphStats:
    def test_basic(self):
        g = build_graph({1: "A", 2: "A", 3: "B"}, [(1, 2), (1, 3), (2, 3)])
        stats = graph_stats(g)
        assert stats.num_nodes == 3
        assert stats.num_edges == 3
        assert stats.size == 6
        assert stats.label_counts == {"A": 2, "B": 1}
        assert stats.max_out_degree == 2
        assert stats.max_in_degree == 2
        assert stats.avg_out_degree == pytest.approx(1.0)

    def test_empty(self):
        from repro.graph import DataGraph

        stats = graph_stats(DataGraph())
        assert stats.size == 0
        assert stats.avg_out_degree == 0.0

    def test_size_fraction(self):
        g = build_graph({1: "A", 2: "B"}, [(1, 2)])
        assert size_fraction(1, g) == pytest.approx(1 / 3)
        from repro.graph import DataGraph

        assert size_fraction(5, DataGraph()) == 0.0
