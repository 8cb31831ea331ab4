"""The planner as a function of a planning state: no graph, no lock.

A hand-built state -- a few definitions, a dict of extension sizes,
``can_materialize`` on or off -- drives the planner to the plans the
engine produces, including the rule a state that cannot materialize
adds (an absent extension makes MatchJoin infeasible); then the same
planner, run on ``engine.checkpoint()``, must agree with
``engine.plan`` on the live catalog, from eight threads at once while a
maintenance thread applies deltas.
"""

import random
import threading

import pytest

from helpers import build_graph, build_pattern, random_labeled_graph
from repro.engine import LRUCache, QueryEngine
from repro.engine.plan import (
    DIRECT,
    MATCHJOIN,
    REASON_ISOLATED_NODES,
    REASON_NOT_CONTAINED,
    REASON_UNMATERIALIZED,
    pattern_key,
)
from repro.engine.planner import PlanningState, plan_query, require_runnable
from repro.errors import NotMaterializedError
from repro.graph.pattern import Pattern
from repro.views import Delta, ViewDefinition, ViewSet
from repro.views.maintenance import IncrementalViewSet

AB = build_pattern({"a": "A", "b": "B"}, [("a", "b")])
BC = build_pattern({"b": "B", "c": "C"}, [("b", "c")])
ABC = build_pattern({"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")])
CA = build_pattern({"c": "C", "a": "A"}, [("c", "a")])
ABCA = build_pattern(
    {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c"), ("c", "a")]
)
DEFINITIONS = (ViewDefinition("AB", AB), ViewDefinition("BC", BC))


class HandBuilt(PlanningState):
    """The whole interface, as plain attributes."""

    def __init__(self, sizes, can_materialize, graph_version=7):
        self.definitions = DEFINITIONS
        self.definitions_version = 2
        self.sizes = sizes
        self.can_materialize = can_materialize
        self.graph_version = graph_version
        self.snapshot_kind = "none"

    def view_version(self, name):
        return {"AB": 11, "BC": 12}[name]

    def extension_size(self, name):
        return self.sizes.get(name)


def plan(state, query, selection=None, memo=None):
    return plan_query(state, query, selection, "minimal", memo)


class TestFixed:
    def test_reason_strings_pinned(self):
        # PlanChoiceRecord consumers match on these.
        assert REASON_NOT_CONTAINED == "not-contained"
        assert REASON_ISOLATED_NODES == "isolated-nodes"
        assert REASON_UNMATERIALIZED == "unmaterialized"

    def test_contained_and_fresh_is_matchjoin_keyed_by_view_stamps(self):
        state = HandBuilt({"AB": 10, "BC": 20}, can_materialize=False)
        made = plan(state, ABC)
        assert (made.strategy, made.reason) == (MATCHJOIN, None)
        assert made.views_used == ("AB", "BC")
        assert made.cache_key == (pattern_key(ABC), "minimal", 2, ("V", (11, 12)))

    def test_absent_extension_is_direct_unless_it_can_be_materialized(self):
        missing = {"AB": 10}  # BC evicted / never built / stale
        frozen = plan(HandBuilt(missing, can_materialize=False), ABC)
        assert (frozen.strategy, frozen.reason) == (DIRECT, REASON_UNMATERIALIZED)
        assert frozen.views_used == ()
        assert frozen.containment.holds  # the decision itself stands
        assert frozen.cache_key[3] == ("G", 7)
        live = plan(HandBuilt(missing, can_materialize=True), ABC)
        assert (live.strategy, live.views_used) == (MATCHJOIN, ("AB", "BC"))
        # Nor is there a graph: still "unmaterialized", not
        # "not-contained", and running it raises as much.
        nowhere = HandBuilt(missing, can_materialize=False, graph_version=None)
        made = plan(nowhere, ABC)
        assert (made.strategy, made.reason) == (DIRECT, REASON_UNMATERIALIZED)
        with pytest.raises(NotMaterializedError):
            require_runnable(nowhere, made)

    def test_fallback_reasons(self):
        state = HandBuilt({"AB": 10, "BC": 20}, can_materialize=False)
        assert plan(state, CA).reason == REASON_NOT_CONTAINED
        lonely = Pattern()
        lonely.add_node("a", "A")
        lonely.add_node("b", "B")
        lonely.add_edge("a", "b")
        lonely.add_node("x", "C")
        isolated = plan(state, lonely)
        assert (isolated.strategy, isolated.reason) == (DIRECT, REASON_ISOLATED_NODES)
        # Without a graph the key says so; executing such a plan raises.
        nowhere = plan(HandBuilt({}, False, graph_version=None), CA)
        assert nowhere.cache_key[3] == ("G", -1)

    def test_memo_serves_the_decision_across_states(self):
        memo = LRUCache(8)
        first = plan(HandBuilt({"AB": 1, "BC": 1}, False), ABC, memo=memo)
        again = plan(HandBuilt({"AB": 1}, False), ABC, memo=memo)
        assert not first.containment_cached and again.containment_cached
        assert again.containment is first.containment
        assert again.strategy == DIRECT  # same decision, different state


def _engine(rng=None):
    rng = rng or random.Random(5)
    graph = random_labeled_graph(rng, 40, 120)
    definitions = list(DEFINITIONS)
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph)
    engine.attach_maintenance(tracker)
    return engine, tracker


def _same(left, right):
    return (
        left.strategy == right.strategy
        and left.selection == right.selection
        and left.views_used == right.views_used
        and left.cache_key == right.cache_key
    )


def test_checkpoint_plans_like_the_live_catalog():
    engine, _ = _engine()
    checkpoint = engine.checkpoint()
    for query in (AB, BC, ABC, CA, ABCA):
        assert _same(engine.plan(query), engine.plan_on(checkpoint, query)), query


def test_the_next_checkpoint_rebuilds_an_evicted_view():
    graph = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
    engine = QueryEngine(ViewSet(list(DEFINITIONS)), graph=graph)
    engine.materialize_views(["AB", "BC"])
    before = engine.checkpoint()
    engine.evict_extensions(["BC"])
    assert engine.plan(ABC).strategy == MATCHJOIN  # the catalog can rebuild it
    after = engine.checkpoint()
    assert set(after.extensions) == {"AB", "BC"}
    assert after.view_versions["BC"] > before.view_versions["BC"]
    made = engine.plan_on(after, ABC)
    assert (made.strategy, made.views_used) == (MATCHJOIN, ("AB", "BC"))


def test_a_record_reports_the_state_that_was_evaluated(monkeypatch):
    """The catalog may move on while an answer evaluates outside the
    lock; its record still reports the extensions and backend read."""
    import repro.engine.engine as runtime

    graph = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
    engine = QueryEngine(ViewSet(list(DEFINITIONS)), graph=graph)
    real = runtime.run_plans

    def evicting(*args, **kwargs):
        engine.evict_extensions(["AB", "BC"])  # lands mid-evaluation
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "run_plans", evicting)
    engine.answer(ABC)
    assert not engine.views.is_materialized("AB")
    (record,) = engine.plan_log()
    assert record.view_sizes == {"AB": 3, "BC": 3}  # as read, not as evicted


def test_concurrent_readers_plan_like_the_serial_planner():
    """Eight threads plan the same and different queries on a pinned
    checkpoint while a maintenance thread applies deltas and answers on
    the live catalog: the memo is shared with no catalog lock.  Plans
    must equal the serial ones outright, keyed on the checkpoint's
    stamps, and nothing may raise."""
    import sys

    engine, tracker = _engine(random.Random(9))
    queries = [AB, BC, ABC, CA, ABCA]
    checkpoint = engine.checkpoint()
    serial = {id(q): engine.plan_on(checkpoint, q) for q in queries}
    engine.invalidate()  # readers race to refill the memo
    nodes = list(tracker.graph.nodes())
    stop = threading.Event()
    failures = []

    def maintain():
        rng = random.Random(1)
        while not stop.is_set():
            source, target = rng.choice(nodes), rng.choice(nodes)
            engine.apply_delta(Delta().insert(source, target).delete(source, target))
            engine.answer(rng.choice(queries))

    def read(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                query = rng.choice(queries)
                made = engine.plan_on(checkpoint, query)
                assert _same(made, serial[id(query)]), query
                assert made.cache_key[2:] == (
                    checkpoint.definitions_version,
                    checkpoint.key_material(made.strategy, made.views_used),
                )
        except BaseException as err:  # surfaced below
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=maintain)
    readers = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
    try:
        writer.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        writer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert not failures, failures[0]
