"""One maintenance owner: the engine's catalog.

The catalog holds the attached
:class:`~repro.views.maintenance.IncrementalViewSet` and its ``seq``
cursor; the tracker maintains the engine's own graph in place, and a
``Delta`` is the one update.  A batch applied through
``engine.apply_delta`` or straight to ``tracker.apply_delta`` must move
the same view stamps -- exactly the changed views, plus every
materialized bounded view when anything was applied -- and leave
untouched views (and the answers cached over them) alone.  There is no
event channel: the catalog notices an update because ``tracker.seq``
moved past its cursor on the next read.
"""

import random

import pytest

from helpers import build_bounded, build_graph, build_pattern, random_labeled_graph
from repro.engine import QueryEngine
from repro.graph.digraph import DataGraph
from repro.graph.snapshot import SnapshotStore
from repro.simulation import bounded_match, match
from repro.views import Delta, ViewDefinition, ViewSet, materialize
from repro.views.maintenance import IncrementalViewSet

AB = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
BC = build_pattern({"b": "B", "c": "C"}, [("b", "c")])
ABC = build_pattern({"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")])
A_TO_C = build_bounded({"a": "A", "c": "C"}, [("a", "c", 2)])


def _definitions():
    return [
        ViewDefinition("AB", AB),
        ViewDefinition("BC", BC),
        ViewDefinition("ABC", ABC),
        ViewDefinition("AC2", A_TO_C),  # bounded: flagged, never maintained
    ]


def _graph():
    return build_graph(
        {1: "A", 2: "B", 3: "C", 4: "B", 5: "A", 6: "C"},
        [(1, 2), (2, 3), (1, 4), (5, 2)],
    )


#: (op, source, target) steps with the views each one changes; the
#: second is a no-op (edge present), the last touches no view.
STEPS = [
    ("insert", 4, 3, {"BC", "ABC"}),
    ("insert", 1, 2, set()),
    ("delete", 5, 2, {"AB", "ABC"}),
    ("insert", 5, 4, {"AB", "ABC"}),
    ("delete", 2, 3, {"BC", "ABC"}),
    ("insert", 3, 6, set()),
]


class _Owner:
    """An engine with a tracker over its own graph and the bounded view
    materialized."""

    def __init__(self):
        self.graph = _graph()
        self.views = ViewSet(_definitions())
        self.tracker = IncrementalViewSet(_definitions(), self.graph)
        self.engine = QueryEngine(self.views, graph=self.graph)
        self.engine.attach_maintenance(self.tracker)
        self.rematerialize()

    def rematerialize(self):
        self.engine.materialize_views(["AC2"])

    def stamps(self):
        return {name: self.views.view_version(name) for name in self.views.names()}


@pytest.mark.parametrize("drive", ["engine", "tracker"])
def test_delta_moves_changed_stamps_and_flags_bounded(drive):
    owner = _Owner()
    assert owner.tracker.skipped_bounded == ("AC2",)
    for op, source, target, changed in STEPS:
        noop = (op == "insert") == owner.graph.has_edge(source, target)
        before = owner.stamps()
        delta = Delta([(op, source, target)])
        if drive == "engine":
            report = owner.engine.apply_delta(delta)
            assert report.stale_bounded == owner.views.stale_views()
        else:
            report = owner.tracker.apply_delta(delta)
            owner.engine.plan(AB)  # any read consumes the cursor
        assert set(report.changed_views) == changed
        assert report.applied == (0 if noop else 1)
        moved = {name for name, stamp in owner.stamps().items() if stamp != before[name]}
        # Exactly the changed views were re-stamped, plus the bounded
        # view when anything was applied at all.
        assert moved == changed | (set() if noop else {"AC2"})
        assert owner.views.stale_views() == (() if noop else ("AC2",))
        # Every maintained extension equals a rematerialization.
        for definition in _definitions()[:3]:
            assert (
                owner.views.extension(definition.name).edge_matches
                == materialize(definition, owner.graph).edge_matches
            )
        # A second read with nothing new moves nothing.
        again = owner.stamps()
        owner.engine.plan(AB)
        assert owner.stamps() == again
        owner.rematerialize()
        assert owner.views.stale_views() == ()


def test_noop_updates_do_not_advance_the_cursor():
    owner = _Owner()
    seq, stamps = owner.tracker.seq, owner.stamps()
    report = owner.engine.apply_delta(Delta().insert(1, 2).delete(9, 9))
    assert (report.applied, report.skipped) == (0, 2)
    assert owner.tracker.seq == seq
    assert owner.stamps() == stamps
    owner.tracker.apply_delta(Delta().insert(2, 1))
    assert owner.tracker.seq == seq + 1
    owner.engine.plan(AB)
    assert owner.stamps()["AC2"] != stamps["AC2"]


def test_engine_answers_follow_a_directly_driven_tracker():
    owner = _Owner()
    engine, tracker = owner.engine, owner.tracker
    for query in (AB, BC, A_TO_C):
        engine.answer(query)
    assert engine.answer(BC).stats.cache_hit
    # A -> B: AB and ABC change, BC does not.
    tracker.apply_delta(Delta().delete(5, 2))
    untouched = engine.answer(BC)
    assert untouched.stats.cache_hit  # its stamp (and cached answer) held
    touched = engine.answer(AB)
    assert not touched.stats.cache_hit
    assert touched.edge_matches == match(AB, owner.graph).edge_matches
    # The bounded view was flagged stale, so its answer is recomputed
    # from the refreshed snapshot -- never served from the cache.
    bounded = engine.answer(A_TO_C)
    assert not bounded.stats.cache_hit
    assert bounded.edge_matches == bounded_match(A_TO_C, owner.graph).edge_matches
    # Imports were bound to the refreshed snapshot: one token again.
    assert owner.views.snapshot_token == engine.snapshot().snapshot_token


def test_attaching_is_exclusive_and_takes_only_the_engines_graph():
    owner = _Owner()
    assert owner.engine.graph is owner.tracker.graph is owner.graph
    owner.engine.attach_maintenance(owner.tracker)  # same tracker: no-op
    with pytest.raises(ValueError, match="already attached"):
        owner.engine.attach_maintenance(IncrementalViewSet([], owner.graph))
    graph = _graph()
    engine = QueryEngine(ViewSet(_definitions()), graph=graph)
    with pytest.raises(ValueError):
        engine.apply_delta(Delta().insert(4, 3))  # nothing attached
    with pytest.raises(ValueError, match="own graph"):
        engine.attach_maintenance(IncrementalViewSet(_definitions(), graph.copy()))
    assert engine.maintenance is None


def test_a_tracker_over_a_snapshot_booted_engine_is_refused_at_attach(tmp_path):
    # The identity check alone passes (``tracker.graph is engine.graph``),
    # and the first insert used to die with AttributeError on add_edge.
    SnapshotStore.save(tmp_path / "snap", _graph())
    for graph in (_graph().freeze(), SnapshotStore.load(tmp_path / "snap").graph):
        engine = QueryEngine(ViewSet(_definitions()), graph=graph)
        tracker = IncrementalViewSet(_definitions(), engine.graph)
        with pytest.raises(ValueError, match="immutable CompactGraph"):
            engine.attach_maintenance(tracker)
        assert engine.maintenance is None
        with pytest.raises(ValueError, match="no maintenance tracker"):
            engine.apply_delta(Delta().insert(4, 3))


def test_the_maintenance_path_never_copies_the_graph(monkeypatch):
    def refuse(self):
        raise AssertionError("DataGraph.copy() on the maintenance path")

    monkeypatch.setattr(DataGraph, "copy", refuse)
    graph = _graph()
    tracker = IncrementalViewSet(_definitions(), graph)
    engine = QueryEngine(ViewSet(_definitions()), graph=graph)
    engine.attach_maintenance(tracker)
    engine.checkpoint()
    for op, source, target, _ in STEPS:
        engine.apply_delta(Delta([(op, source, target)]))
        checkpoint = engine.checkpoint()
    assert engine.graph is graph
    assert checkpoint.graph_version == graph.version
    assert checkpoint.extensions["AB"].edge_matches == match(AB, graph).edge_matches


def test_tracker_is_consistent_after_every_single_update():
    # What the event channel used to let a subscriber check mid-burst
    # holds for anyone polling between updates.
    rng = random.Random(11)
    graph = random_labeled_graph(rng, 18, 35)
    definitions = _definitions()[:3]
    mirror = graph.copy()
    tracker = IncrementalViewSet(definitions, graph)
    nodes = list(graph.nodes())
    applied = 0
    for _ in range(60):
        source, target = rng.choice(nodes), rng.choice(nodes)
        if mirror.has_edge(source, target):
            mirror.remove_edge(source, target)
            tracker.apply_delta(Delta().delete(source, target))
        else:
            mirror.add_edge(source, target)
            tracker.apply_delta(Delta().insert(source, target))
        applied += 1
        assert tracker.seq == applied
        for definition in definitions:
            assert (
                tracker.extension(definition.name).edge_matches
                == materialize(definition, mirror).edge_matches
            ), definition.name
