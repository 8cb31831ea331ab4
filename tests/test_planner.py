"""The planner as a function of a planning state: no graph, no lock.

A hand-built state -- a few definitions, a dict of extension sizes,
``can_materialize`` on or off -- drives every planner mode to the plans
the engine produces, including the rule an immutable state adds (an
absent extension it cannot materialize makes MatchJoin infeasible);
then the same planner, run on ``engine.checkpoint()``, must agree with
``engine.plan`` on the live catalog, from eight threads at once while a
maintenance thread applies deltas.
"""

import random
import threading

import pytest

from helpers import build_graph, build_pattern, random_labeled_graph
from repro.engine import CostModel, LRUCache, QueryEngine
from repro.engine.plan import (
    DIRECT,
    HYBRID,
    MATCHJOIN,
    PLANNERS,
    REASON_FORCED,
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

    def graph_units(self):
        return 1000.0 if self.graph_version is not None else 0.0

    def direct_units(self, query):
        return 100.0 * len(list(query.nodes()))


def plan(state, query, mode="fixed", selection=None, memo=None):
    return plan_query(state, query, selection, mode, "minimal", memo, CostModel())


class TestFixed:
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


class TestPriced:
    def test_forced_modes(self):
        state = HandBuilt({"AB": 10, "BC": 20}, can_materialize=False)
        direct = plan(state, ABC, "direct")
        assert (direct.strategy, direct.reason) == (DIRECT, REASON_FORCED)
        assert not direct.containment.holds  # containment never ran
        hybrid = plan(state, ABCA, "hybrid")
        assert (hybrid.strategy, hybrid.selection) == (HYBRID, "all")
        assert hybrid.views_used == ("AB", "BC")
        assert hybrid.cache_key[3] == ("H", (11, 12), 7)
        # No coverage at all, or a missing extension nobody can build:
        # the hybrid baseline degrades to direct.
        assert plan(state, CA, "hybrid").strategy == DIRECT
        frozen = HandBuilt({"AB": 10}, can_materialize=False)
        assert plan(frozen, ABCA, "hybrid").strategy == DIRECT

    def test_adaptive_prices_what_the_state_reports(self):
        small = HandBuilt({"AB": 10, "BC": 20}, can_materialize=False)
        cheap = plan(small, ABC, "adaptive")
        assert cheap.strategy == MATCHJOIN
        labels = {c.label: c for c in cheap.candidates}
        assert labels["matchjoin[minimal]"].units == 30.0
        assert labels["direct"].units == 300.0
        # Extensions far larger than the direct volume: direct wins.
        huge = HandBuilt({"AB": 10**6, "BC": 10**6}, can_materialize=False)
        assert plan(huge, ABC, "adaptive").strategy == DIRECT
        # An absent extension on a state that cannot materialize is
        # infeasible, not merely expensive.
        frozen = plan(HandBuilt({"AB": 10}, False), ABC, "adaptive")
        assert (frozen.strategy, frozen.reason) == (DIRECT, REASON_UNMATERIALIZED)
        infeasible = [c for c in frozen.candidates if not c.feasible]
        assert infeasible and all(c.strategy == MATCHJOIN for c in infeasible)
        pending = plan(HandBuilt({"AB": 10}, True), ABC, "adaptive")
        assert all(c.feasible for c in pending.candidates)
        # Nor is there a graph: still "unmaterialized", not "not-contained".
        nowhere = plan(HandBuilt({"AB": 10}, False, None), ABC, "adaptive")
        assert (nowhere.strategy, nowhere.reason) == (DIRECT, REASON_UNMATERIALIZED)
        with pytest.raises(NotMaterializedError):
            require_runnable(HandBuilt({"AB": 10}, False, None), nowhere)

    def test_adaptive_direct_under_an_explicit_selection(self):
        # Used to look the winner up under the engine's default
        # selection, which an explicit one never priced (KeyError).
        state = HandBuilt({"AB": 10, "BC": 20}, can_materialize=False)
        made = plan(state, CA, "adaptive", selection="all")
        assert (made.strategy, made.selection) == (DIRECT, "all")
        assert made.reason == REASON_NOT_CONTAINED


def _engine(planner, rng=None):
    rng = rng or random.Random(5)
    graph = random_labeled_graph(rng, 40, 120)
    definitions = list(DEFINITIONS)
    tracker = IncrementalViewSet(definitions, graph)
    engine = QueryEngine(ViewSet(definitions), graph=graph, planner=planner)
    engine.attach_maintenance(tracker)
    return engine, tracker


def _same(left, right):
    return (
        left.strategy == right.strategy
        and left.selection == right.selection
        and left.views_used == right.views_used
        and left.cache_key == right.cache_key
    )


@pytest.mark.parametrize("planner", PLANNERS)
def test_checkpoint_plans_like_the_live_catalog(planner):
    engine, _ = _engine(planner)
    checkpoint = engine.checkpoint()
    for query in (AB, BC, ABC, CA, ABCA):
        assert _same(engine.plan(query), engine.plan_on(checkpoint, query)), query


@pytest.mark.parametrize("planner", ["fixed", "adaptive"])
def test_an_evicted_view_is_answered_directly_on_the_epoch_that_lacks_it(planner):
    graph = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
    engine = QueryEngine(
        ViewSet(list(DEFINITIONS)), graph=graph, planner=planner,
        auto_materialize=1.0,
    )
    engine.materialize_views(["AB", "BC"])
    assert engine.plan_on(engine.checkpoint(), ABC).strategy == MATCHJOIN
    engine.evict_extensions(["BC"])
    lacking = engine.checkpoint()  # the advisor's eviction is honored
    assert "BC" not in lacking.extensions
    made = engine.plan_on(lacking, ABC)
    assert (made.strategy, made.reason) == (DIRECT, REASON_UNMATERIALIZED)
    assert made.cache_key[3] == ("G", lacking.graph_version)
    if planner == "fixed":  # the live catalog can rebuild it
        assert engine.plan(ABC).strategy == MATCHJOIN
    record = engine.record_plan_choice(
        made, elapsed=0.0, cache_hit=True, state=lacking
    )
    assert record.views_used == () and record.views_wanted == ("AB", "BC")


def test_a_record_reports_the_state_that_was_evaluated(monkeypatch):
    """The catalog may move on while an answer evaluates outside the
    lock; its record still reports the extensions and backend read."""
    import repro.engine.engine as runtime

    graph = build_graph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3)])
    engine = QueryEngine(ViewSet(list(DEFINITIONS)), graph=graph)
    real = runtime.run_specs

    def evicting(*args, **kwargs):
        engine.evict_extensions(["AB", "BC"])  # lands mid-evaluation
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "run_specs", evicting)
    engine.answer(ABC)
    assert not engine.views.is_materialized("AB")
    (record,) = engine.plan_log()
    assert record.view_sizes == {"AB": 3, "BC": 3}  # as read, not as evicted


@pytest.mark.parametrize("planner", ["fixed", "adaptive"])
def test_concurrent_readers_plan_like_the_serial_planner(planner):
    """Eight threads plan the same and different queries on a pinned
    checkpoint while a maintenance thread applies deltas and answers on
    the live catalog: the memo and the cost model are shared with no
    catalog lock.  Fixed plans must equal the serial ones outright;
    adaptive ones may re-price as the model calibrates, but what the
    state decides -- fingerprint, stamps of the strategy chosen -- may
    not move, and nothing may raise."""
    import sys

    engine, tracker = _engine(planner, random.Random(9))
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
            engine.answer(rng.choice(queries))  # calibrates the shared model

    def read(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                query = rng.choice(queries)
                made = engine.plan_on(checkpoint, query)
                if planner == "fixed":
                    assert _same(made, serial[id(query)]), query
                assert made.cache_key[0] == serial[id(query)].cache_key[0]
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
