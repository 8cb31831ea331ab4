"""One state machine over every engine configuration, checked against
the paper's exact oracle.

Theorem 1 says MatchJoin over a contained view selection equals
``Qs(G)``, and the maximum (bounded) simulation is unique, so every
engine configuration has one right answer: the reference fixpoint on a
dict graph.  :class:`OracleMachine` owns that graph and drives a
:class:`~repro.engine.QueryEngine` through random interleavings of
``query``, ``delta`` / ``self_loop_round_trip`` (``Delta`` batches with
self-loops, deletes of absent edges and edges to fresh node keys),
``evict`` and ``save_and_load`` (a checkpoint persisted with
``SnapshotStore`` as the server persists an epoch -- over one path per
run, with ``overwrite=True`` -- then booted from).

``boot`` samples the configuration: the graph form -- ``live`` (the
engine boots on a dict graph with a tracker over its freeze; its
catalog is materialised on that graph first, or not), ``frozen`` (its
snapshot), ``mapped`` (that snapshot saved and mapped back) or
``ingested`` with 1-4 shards (``helpers.ingested``); plain views, or
bounded ones with plain views mixed in; the selection policy; the
Match kernel (``helpers.forced_kernel``).  Every single-snapshot engine
-- ``live``, ``frozen``, ``mapped`` and any ``save_and_load`` booted --
is maintained in place by a tracker over its own snapshot and takes a
delta through ``engine.apply_delta``; a delta on ``ingested`` boots a
new engine on a new ingest.  Beside the engine, the snapshot the last
save mapped back is held untouched, and every batch since is applied
to it at once (``CompactGraph.applied`` on a snapshot that built no
key map): it must read like the reference.

After every step every engine's fresh extension, and every tracker's,
must equal the reference rematerialisation, and every view state the
tracker keeps must be the maximum simulation, with exact counters.  Every answer's
``edge_matches`` must equal the oracle's, its ``node_matches`` must
keep ``repro.simulation.result``'s node-set contract, and whenever
``Q ⊑ V`` MatchJoin / BMatchJoin (optimized and naive) must equal Match
/ BMatch on the engine's snapshot.  An engine over a sharded graph
refuses a tracker.  The budget comes from the hypothesis profile
(``tests/conftest.py``): ``tier1`` by default, ``ci`` for the deep run.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.bounded.bmatchjoin import bounded_match_join
from repro.core.containment import SELECTIONS
from repro.core.matchjoin import match_join
from repro.engine import MATCHJOIN, QueryEngine
from repro.graph import ANY, BoundedPattern, DataGraph, Pattern
from repro.graph.compact import CompactGraph
from repro.graph.snapshot import SnapshotStore
from repro.simulation import bounded_match, match
from repro.simulation.simulation import maximum_simulation
from repro.views import ViewDefinition, ViewSet
from repro.views.maintenance import Delta, IncrementalViewSet

from helpers import (
    KERNELS,
    apply_ops,
    forced_kernel,
    ingested,
    matchjoin_metrics,
    reference_bounded_simulation,
    reference_edge_matches,
)

LABELS = "AB"
NODE_LABELS = (("A",), ("B",), ("A", "B"))
#: Keys no initial graph holds: an edge to one appends a node.
FRESH = ("f0", "f1")
FORMS = ("live", "frozen", "mapped", "ingested")
BOUNDS = (1, 2, ANY)
#: Where snapshot directories go: tmpfs where there is one (a run saves
#: and ingests hundreds of them), else the default.
SCRATCH = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw):
    """``(labels, edges)`` over node keys ``n0 .. n{k-1}``."""
    keys = [f"n{i}" for i in range(draw(st.integers(2, 7)))]
    labels = {key: draw(st.sampled_from(NODE_LABELS)) for key in keys}
    node = st.sampled_from(keys)
    return labels, draw(st.lists(st.tuples(node, node), max_size=16))


@st.composite
def patterns(draw, bounded):
    """2-3 nodes, 1-4 edges, no isolated node; the first edge closes a
    2-cycle unless it is a self-loop (a data self-loop then witnesses
    both edges of the cycle)."""
    k = draw(st.integers(2, 3))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=k, max_size=k))
    node = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=3, unique=True))
    if pairs[0][::-1] not in pairs:
        pairs.append(pairs[0][::-1])
    pattern = BoundedPattern() if bounded else Pattern()
    for u in sorted({u for pair in pairs for u in pair}):
        pattern.add_node(u, labels[u])
    for pair in pairs:
        pattern.add_edge(*pair, *([draw(st.sampled_from(BOUNDS))] if bounded else []))
    return pattern


def _copy_into(query, pattern, offset, glue=()):
    """``pattern``'s nodes (renumbered by ``offset``, ``glue`` mapping
    some onto ``query``'s) and edges, added to ``query``."""
    name = {u: offset + u for u in pattern.nodes()}
    name.update(glue)
    for u in pattern.nodes():
        if name[u] not in query.nodes():
            query.add_node(name[u], pattern.condition(u))
    for edge in pattern.edges():
        ends = name[edge[0]], name[edge[1]]
        if isinstance(query, BoundedPattern):
            bounded = isinstance(pattern, BoundedPattern)
            query.add_edge(*ends, pattern.bound(edge) if bounded else 1)
        else:
            query.add_edge(*ends)


@st.composite
def queries(draw, views, bounded):
    """A view's pattern, two views glued at a condition-equal node (both
    contained in ``V``), or an arbitrary pattern."""
    kind = draw(st.sampled_from(("view", "glued", "random")))
    if kind == "random":
        return draw(patterns(bounded))
    first = draw(st.sampled_from(views)).pattern
    query = BoundedPattern() if bounded else Pattern()
    _copy_into(query, first, 0)
    if kind == "glued":
        second = draw(st.sampled_from(views)).pattern
        pairs = [
            (u, w) for u in second.nodes() for w in first.nodes()
            if second.condition(u) == first.condition(w)
        ]
        _copy_into(query, second, 10, [draw(st.sampled_from(pairs))] if pairs else ())
    return query


def deltas(edges, nodes):
    """1-4 ops: inserts (fresh endpoints and self-loops among them) and
    deletes of absent edges, present ones and present self-loops."""
    pool = st.sampled_from(sorted(nodes) + list(FRESH))
    ops = [
        st.tuples(st.sampled_from(("insert", "delete")), pool, pool),
        pool.map(lambda v: ("insert", v, v)),
    ]
    loops = [edge for edge in edges if edge[0] == edge[1]]
    for present in (sorted(edges), sorted(loops)):
        if present:
            ops.append(st.sampled_from(present).map(lambda edge: ("delete",) + edge))
    return st.lists(st.one_of(ops), min_size=1, max_size=4).map(Delta)


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def _graph(labels, edges) -> DataGraph:
    graph = DataGraph()
    for node, node_labels in labels.items():
        graph.add_node(node, labels=node_labels)
    for edge in edges:
        graph.add_edge(*edge)
    return graph


def oracle(pattern, graph):
    """``(sim, edge_matches, distances)``: ``maximum_simulation`` for a
    plain pattern (``distances`` is ``None``),
    ``helpers.reference_bounded_simulation`` for a bounded one; ``sim``
    is ``None`` and ``edge_matches`` ``{}`` on no match."""
    if not isinstance(pattern, BoundedPattern):
        sim = maximum_simulation(pattern, graph)
        return sim, reference_edge_matches(pattern, graph, sim) if sim else {}, None
    sim = reference_bounded_simulation(pattern, graph)
    edges, distances = {}, {}
    for edge in pattern.edges() if sim else ():
        bound, pairs = pattern.bound(edge), edges.setdefault(edge, set())
        for v in sim[edge[0]]:
            reach = graph.descendants_within(v, len(graph))
            for w in sim[edge[1]].intersection(reach):
                if bound is ANY or reach[w] <= bound:
                    pairs.add((v, w))
                    distances[(v, w)] = reach[w]
    return sim, edges, distances


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------
class OracleMachine(RuleBasedStateMachine):
    """``ref`` is the reference graph, changed only by
    ``helpers.apply_ops``; ``source`` is the dict graph the run booted
    on, moved by the same ops (it differs from ``ref`` only where an
    ingest dropped edgeless nodes), and ``tracker`` the engine's tracker
    (``ingested``: one over ``source``'s snapshot, driven beside it).
    The kernel is forced around engine work only: hypothesis reads
    ``sys.modules["numpy"]`` while drawing."""

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory(dir=SCRATCH)
        self.saved = os.path.join(self.tmp.name, "snap")  # every save's path
        self.engine, self.probes = None, []  # probes: a live form's loaded twins
        self.cold, self.since = None, []  # the last save mapped back, the ops since
        self.expected = {}  # view name -> oracle on the current ref

    def teardown(self):
        self.tmp.cleanup()

    @initialize(
        form=st.sampled_from(FORMS),
        shards=st.integers(1, 4),
        bounded=st.booleans(),
        selection=st.sampled_from(SELECTIONS),
        kernel=st.sampled_from(KERNELS),
        graph=graphs(),
        data=st.data(),
    )
    def boot(self, form, shards, bounded, selection, kernel, graph, data):
        self.form, self.shards, self.bounded = form, shards, bounded
        self.selection, self.kernel = selection, kernel
        # The tracker maintains the plain views (a bounded catalog has
        # one too); bounded ones go stale.
        views = data.draw(st.lists(patterns(False), min_size=1, max_size=3 - bounded))
        views += data.draw(st.lists(patterns(True), min_size=1, max_size=2)) if bounded else []
        self.definitions = [ViewDefinition(f"V{i}", p) for i, p in enumerate(views)]
        self.ref, self.source = _graph(*graph), _graph(*graph)
        with forced_kernel(kernel):
            self.tracker = IncrementalViewSet(self.definitions, self.source)
            if form == "live":
                views = ViewSet(self.definitions)
                if data.draw(st.booleans(), label="materialized"):
                    # The README flow: a catalog materialised on the
                    # live graph joins on the snapshot the engine serves.
                    views.materialize(self.source)
                self.engine = self._engine(graph=self.source, views=views)
                self.engine.attach_maintenance(self.tracker)
            elif form == "ingested":
                self._ingest()
            elif form == "frozen":
                self._adopt(self._maintained(self._engine(graph=self.source.freeze())))
            else:
                self._adopt(self._loaded(self._engine(graph=self.source.freeze())))

    def _engine(self, **kwargs):
        if "snapshot_path" not in kwargs:
            kwargs.setdefault("views", ViewSet(self.definitions))
        return QueryEngine(selection=self.selection, **kwargs)

    def _loaded(self, engine):
        """An engine booted from ``engine``'s checkpoint, saved over the
        run's one path and mapped back, maintained (or, sharded,
        refusing a tracker); the save is mapped back a second time as
        ``cold``."""
        checkpoint = engine.checkpoint()
        assert checkpoint.snapshot is engine.snapshot()
        assert set(checkpoint.extensions) == {d.name for d in self.definitions}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fsync", lambda fd: None)  # durability is not checked
            SnapshotStore.save(
                self.saved, checkpoint.snapshot,
                views=checkpoint.extensions, overwrite=True,
            )
        cold = SnapshotStore.load(self.saved).graph
        self.cold, self.since = (cold, []) if isinstance(cold, CompactGraph) else (None, [])
        return self._maintained(self._engine(snapshot_path=SnapshotStore.load(self.saved)))

    def _ingest(self):
        """Boot on ``ref``'s edges ingested; ``ref`` becomes the graph of
        exactly those edges (ingest drops edgeless nodes)."""
        graph, self.ref = ingested(
            self.ref.edges(), self.ref.labels, self.shards, self.tmp.name
        )
        self._adopt(self._maintained(self._engine(graph=graph)))

    def _maintained(self, engine):
        """``engine`` with a tracker over its own snapshot attached; a
        sharded one refuses it."""
        if isinstance(engine.snapshot(), CompactGraph):
            engine.attach_maintenance(IncrementalViewSet(self.definitions, engine.graph))
        else:
            self._refuses_a_tracker(engine)
        return engine

    def _adopt(self, engine):
        self.engine = engine
        self.tracker = engine.maintenance or self.tracker

    @staticmethod
    def _refuses_a_tracker(engine):
        with pytest.raises(ValueError, match="sharded"):
            engine.attach_maintenance(IncrementalViewSet([], engine.graph))

    def engines(self):
        return [self.engine] + self.probes

    def view_oracle(self, name):
        if name not in self.expected:
            pattern = next(d.pattern for d in self.definitions if d.name == name)
            _, edges, distances = oracle(pattern, self.ref)
            # An empty extension keeps one empty set per view edge.
            empty = {edge: set() for edge in pattern.edges()}
            self.expected[name] = edges or empty, distances
        return self.expected[name]

    # -- rules ---------------------------------------------------------
    @rule(data=st.data())
    def query(self, data):
        query = data.draw(queries(self.definitions, self.bounded), label="query")
        sim, edges, _ = oracle(query, self.ref)
        with forced_kernel(self.kernel):
            for engine in self.engines():
                with matchjoin_metrics() as count:
                    plan = engine.plan(query)
                    answer = engine.execute(plan)
                    calls = {p: count("total", p) for p in ("ids", "naive")}
                joined = plan.strategy == MATCHJOIN
                # Every engine configuration joins the kernel once per
                # evaluated MatchJoin plan, never the reference loop.
                fresh = joined and not answer.stats.cache_hit
                assert calls == {"ids": int(fresh), "naive": 0}
                assert answer.edge_matches == edges
                assert bool(answer) == (sim is not None)
                for u in query.nodes() if sim else ():
                    # The node-set contract (``repro.simulation.result``).
                    if query.successors(u) or not joined:
                        assert answer.node_matches[u] == sim[u], u
                    else:
                        assert answer.node_matches[u] <= sim[u], u
                if joined:
                    self._theorem1(query, plan, engine, edges)

    def _theorem1(self, query, plan, engine, edges):
        extensions = {name: engine.views.extension(name) for name in plan.views_used}
        join, direct = (
            (bounded_match_join, bounded_match) if self.bounded else (match_join, match)
        )
        assert direct(query, engine.snapshot()).edge_matches == edges
        for optimized in (True, False):
            joined = join(query, plan.containment, extensions, optimized=optimized)
            assert joined.edge_matches == edges, optimized

    @rule(data=st.data())
    def delta(self, data):
        self._delta(data.draw(deltas(set(self.ref.edges()), list(self.ref.nodes()))))

    @rule(data=st.data())
    def self_loop_round_trip(self, data):
        """Insert and delete a self-loop on each of some nodes in one
        batch: each delete must undo every match its loop witnessed (both
        edges of a pattern 2-cycle among them)."""
        pool = st.sampled_from(sorted(self.ref.nodes()) + list(FRESH))
        nodes = data.draw(st.lists(pool, min_size=1, unique=True))
        self._delta(Delta((op, v, v) for v in nodes for op in ("insert", "delete")))

    def _delta(self, delta):
        self.expected = {}
        apply_ops(self.ref, delta)
        apply_ops(self.source, delta)
        with forced_kernel(self.kernel):
            for engine in self.engines():
                if engine.maintenance is None:
                    with pytest.raises(ValueError, match="no maintenance tracker"):
                        engine.apply_delta(delta)
                    continue
                report = engine.apply_delta(delta)
                assert report.applied + report.skipped == len(delta)
                assert engine.graph is engine.snapshot() is engine.maintenance.graph
            if self.form == "ingested":
                self.tracker.apply_delta(delta)
                self._ingest()
        if self.cold is not None:
            # Every batch since the save at once, on a snapshot no read
            # has built a key map on: skipped ops change nothing.
            self.since += delta.ops
            batched = self.cold.applied(self.since)
            assert batched.extends_token == self.cold.snapshot_token
            assert list(batched.nodes()) == list(self.source.nodes())
            assert sorted(batched.edges(), key=repr) == sorted(self.source.edges(), key=repr)

    @rule(data=st.data())
    def evict(self, data):
        names = [d.name for d in self.definitions]
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True), label="evict")
        self.engine.evict_extensions(chosen)
        assert not any(map(self.engine.views.is_materialized, chosen))

    @rule(data=st.data())
    def save_and_load(self, data):
        with forced_kernel(self.kernel):
            loaded = self._loaded(self.engine)
        if self.form == "live":
            # Both stay beside the live engine and take every delta; the
            # twin booted from the generation this save just swept away
            # (its files unlinked, its mappings live) is queried right away.
            self.probes = self.probes[-1:] + [loaded]
            self.query(data)
        else:
            self._adopt(loaded)

    @invariant()
    def extensions_equal_their_rematerialisation(self):
        if self.engine is None:
            return
        with forced_kernel(self.kernel):
            held = [
                (name, engine.views.fresh_extension(name))
                for engine in self.engines() for name in engine.views.names()
            ]
            held += [(name, self.tracker.extension(name)) for name in self.tracker.names()]
            for name, extension in held:
                if extension is None:
                    continue
                edges, distances = self.view_oracle(name)
                assert extension.edge_matches == edges, name
                if distances is not None:
                    pairs = {pair for found in edges.values() for pair in found}
                    assert {p: extension.distance_of(p) for p in pairs} == distances, name


    @invariant()
    def tracked_states_are_the_maximum_simulation(self):
        """Every view the tracker keeps is ``maximum_simulation`` on the
        graph it maintains, decoded from the snapshot its ids are on,
        and each counter it keeps for a live candidate is exact."""
        snapshot = self.tracker._snapshot
        for name in self.tracker.names():
            pattern = self.tracker.definition(name).pattern
            state, sim = self.tracker._trackers[name]._state, maximum_simulation(pattern, self.source)
            assert (state is None) == (sim is None), name
            if state is None:
                continue
            decode = snapshot.node_table.__getitem__
            assert {u: set(map(decode, ids)) for u, ids in state.sim.items()} == sim, name
            for (u, u1), counter in state.counters.items():
                for v in state.sim[u].intersection(counter):
                    witnesses = state.sim[u1].intersection(snapshot.succ_rows[v])
                    assert counter[v] == len(witnesses), (name, u, u1, v)


OracleMachine.TestCase.settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
TestOracleMachine = OracleMachine.TestCase
