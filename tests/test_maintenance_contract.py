"""One maintenance contract, whoever holds the catalog.

The pull cursor -- which views changed since the last sync; any applied
update flags every materialized bounded view stale -- lives once, in
:class:`~repro.views.storage.ViewSet`.  ``ViewSet.track()`` and
``QueryEngine.attach_maintenance()`` are two owners of the same cursor,
so the *same* update sequence, driven either by single
``insert_edge`` / ``delete_edge`` calls on the tracker or by ``Delta``
batches, must move the same view stamps, flag the same bounded views
stale and leave untouched views (and the answers cached over them)
alone through both.  There is no event channel: a consumer notices an
update because ``tracker.seq`` moved past its cursor on the next read.
"""

import random
import warnings

import pytest

from helpers import build_bounded, build_graph, build_pattern, random_labeled_graph
from repro.engine import QueryEngine
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


class _ViaTrack:
    """``ViewSet.track()``: the ViewSet builds and follows its tracker."""

    def __init__(self):
        self.views = ViewSet(_definitions())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            self.tracker = self.views.track(_graph())
        self.rematerialize()

    def rematerialize(self):
        self.views.materialize(self.tracker.graph.freeze(), names=["AC2"])

    def sync(self):
        self.views.import_maintenance()

    def apply(self, delta):
        return self.views.apply_delta(delta)


class _ViaEngine:
    """``engine.attach_maintenance()``: the catalog follows a tracker
    built elsewhere, binding imports to its snapshot."""

    def __init__(self):
        self.views = ViewSet(_definitions())
        self.tracker = IncrementalViewSet(_definitions()[:3], _graph())
        self.engine = QueryEngine(self.views, graph=_graph())
        self.engine.attach_maintenance(self.tracker)
        self.rematerialize()

    def rematerialize(self):
        self.engine.materialize_views(["AC2"])

    def sync(self):
        self.engine.plan(AB)  # any read compares the cursor

    def apply(self, delta):
        return self.engine.apply_delta(delta)


def _stamps(owner):
    return {name: owner.views.view_version(name) for name in owner.views.names()}


def _moved(owner, before):
    return {name for name, stamp in _stamps(owner).items() if stamp != before[name]}


@pytest.mark.parametrize("drive", ["single", "batch"])
def test_both_owners_move_the_same_stamps_and_flag_the_same_views(drive):
    owners = [_ViaTrack(), _ViaEngine()]
    assert owners[0].tracker.skipped_bounded == ("AC2",)
    for op, source, target, changed in STEPS:
        noop = (op == "insert") == owners[0].tracker.graph.has_edge(source, target)
        outcomes = []
        for owner in owners:
            before = _stamps(owner)
            if drive == "single":
                getattr(owner.tracker, f"{op}_edge")(source, target)
                owner.sync()
                stale = owner.views.stale_views()
            else:
                report = owner.apply(Delta([(op, source, target)]))
                assert set(report.changed_views) == changed
                assert report.applied == (0 if noop else 1)
                stale = report.stale_bounded
                assert stale == owner.views.stale_views()
            outcomes.append((_moved(owner, before), stale))
            # Every maintained extension equals a rematerialization.
            for definition in _definitions()[:3]:
                assert (
                    owner.views.extension(definition.name).edge_matches
                    == materialize(definition, owner.tracker.graph).edge_matches
                )
            # A second sync with nothing new moves nothing.
            again = _stamps(owner)
            owner.sync()
            assert _stamps(owner) == again
        assert outcomes[0] == outcomes[1]
        moved, stale = outcomes[0]
        # Exactly the changed views were re-stamped, plus the bounded
        # view when anything was applied at all.
        assert moved == changed | (set() if noop else {"AC2"})
        assert stale == (() if noop else ("AC2",))
        for owner in owners:
            owner.rematerialize()
            assert owner.views.stale_views() == ()


def test_noop_updates_do_not_advance_the_cursor():
    owner = _ViaTrack()
    seq = owner.tracker.seq
    assert owner.tracker.insert_edge(1, 2) is False  # already present
    assert owner.tracker.delete_edge(9, 9) is False  # never existed
    assert owner.tracker.seq == seq
    assert not owner.views.maintenance_pending()
    owner.tracker.insert_edge(2, 1)
    assert owner.tracker.seq == seq + 1
    assert owner.views.maintenance_pending()


def test_engine_answers_follow_a_directly_driven_tracker():
    owner = _ViaEngine()
    engine, tracker = owner.engine, owner.tracker
    for query in (AB, BC, A_TO_C):
        engine.answer(query)
    assert engine.answer(BC).stats.cache_hit
    tracker.delete_edge(5, 2)  # A -> B: AB and ABC change, BC does not
    untouched = engine.answer(BC)
    assert untouched.stats.cache_hit  # its stamp (and cached answer) held
    touched = engine.answer(AB)
    assert not touched.stats.cache_hit
    assert touched.edge_matches == match(AB, tracker.graph).edge_matches
    # The bounded view was flagged stale, so its answer is recomputed
    # from the refreshed snapshot -- never served from the cache.
    bounded = engine.answer(A_TO_C)
    assert not bounded.stats.cache_hit
    assert bounded.edge_matches == bounded_match(A_TO_C, tracker.graph).edge_matches
    # Imports were bound to the refreshed snapshot: one token again.
    assert owner.views.snapshot_token == engine.snapshot().snapshot_token


def test_following_is_exclusive_and_detachable():
    owner = _ViaEngine()
    owner.engine.attach_maintenance(owner.tracker)  # same tracker: no-op
    with pytest.raises(ValueError):
        owner.engine.attach_maintenance(IncrementalViewSet([], _graph()))
    with pytest.raises(ValueError):
        owner.views.track(_graph())
    owner.engine.detach_maintenance()
    assert owner.engine.maintenance is None
    with pytest.raises(ValueError):
        owner.engine.apply_delta(Delta().insert(4, 3))


def test_tracker_is_consistent_after_every_single_update():
    # What the event channel used to let a subscriber check mid-burst
    # holds for anyone polling between updates.
    rng = random.Random(11)
    graph = random_labeled_graph(rng, 18, 35)
    definitions = _definitions()[:3]
    tracker = IncrementalViewSet(definitions, graph)
    mirror = graph.copy()
    nodes = list(graph.nodes())
    applied = 0
    for _ in range(60):
        source, target = rng.choice(nodes), rng.choice(nodes)
        if mirror.has_edge(source, target):
            mirror.remove_edge(source, target)
            tracker.delete_edge(source, target)
        else:
            mirror.add_edge(source, target)
            tracker.insert_edge(source, target)
        applied += 1
        assert tracker.seq == applied
        for definition in definitions:
            assert (
                tracker.extension(definition.name).edge_matches
                == materialize(definition, mirror).edge_matches
            ), definition.name
