"""Can a cone skip rule make bounded view maintenance cheap?

Bounded views are not maintained incrementally: after an update every
materialized bounded view is rematerialized.  The cheapest alternative
is to *skip* the views no changed edge can reach and rematerialize the
rest.  Each edge ``(u, u')`` of a bounded view with bound ``k`` reads
only paths of length ``<= k`` from a candidate of ``u`` to a candidate
of ``u'``, so a changed edge ``(s, t)`` can move the extension only if
``s`` is such a source candidate or lies within ``k - 1`` hops after one
(``reverse_within_ids``), and ``t`` is such a target candidate or lies
within ``k - 1`` hops before one (``descendants_within_ids``) -- on the
snapshot before the batch (deletes) or after it (inserts).  The rule
redoes a view iff some changed edge passes both cones of one of its
edges.  Candidates (``candidate_ids``) are computed once, untimed: no
label changes in these batches.

This script replays the measurement on the citation stand-in (25,000
nodes / 60,000 edges, generator seed 11) with the ``citation@2`` suite
(the 12 citation views, every edge bounded by 2): 12 random batches of
8 edge inserts, every third also deleting 4 present edges, per replay
seed.  Per batch it reports

* ``changed`` -- the views whose rematerialized extension differs (the
  work any rule must redo),
* ``redo`` -- the views the cone rule does not skip,
* ``remat ms`` -- rematerializing all 12 views (today's cost),
* ``skip ms`` -- evaluating the rule, and ``rule ms`` -- the rule plus
  rematerializing its ``redo`` views,
* ``gain`` -- ``remat ms / rule ms``, what the skip would buy.

Run ``PYTHONPATH=src python benchmarks/bounded_cone_skip.py [SEED ...]``
(default seeds 0 and 1; ~1 min per seed on a 2-core box).
"""

import random
import statistics
import sys
from time import perf_counter

from repro.bench.workloads import bounded_suite
from repro.datasets import citation_graph, citation_views
from repro.graph.pattern import ANY
from repro.views.view import materialize

BATCHES = 12
INSERTS = 8
DELETES = 4


def batch(rng, snapshot, nodes, index):
    """One batch's ops: ``INSERTS`` random inserts, plus ``DELETES``
    deletes of present edges in every third batch."""
    ops = [("insert", *rng.sample(nodes, 2)) for _ in range(INSERTS)]
    if index % 3 == 2:
        ops += [("delete", *edge) for edge in rng.sample(list(snapshot.edges()), DELETES)]
    return ops


def candidates_of(definitions, snapshot):
    """``{view name: {pattern node: candidate ids}}``."""
    return {
        d.name: {u: snapshot.candidate_ids(d.pattern.condition(u)) for u in d.pattern.nodes()}
        for d in definitions
    }


def cone_rule(definitions, candidates, before, after, ops):
    """The names of the views the cone rule leaves to redo."""
    edges = {(after.id_of(source), after.id_of(target)) for _, source, target in ops}
    cones = {}

    def near(i, k, forward):
        key = (i, k, forward)
        if key not in cones:
            found = {i}
            for graph in (before, after):
                if k and i < graph.num_nodes:
                    found |= set(graph.descendants_within_ids(i, k)) if forward else graph.reverse_within_ids({i}, k)
            cones[key] = found
        return cones[key]

    redo = []
    for definition in definitions:
        pattern, sets = definition.pattern, candidates[definition.name]
        for u, u1 in pattern.edges():
            bound = pattern.bound((u, u1))
            if bound is ANY or any(
                not near(s, bound - 1, False).isdisjoint(sets[u])
                and not near(t, bound - 1, True).isdisjoint(sets[u1])
                for s, t in edges
            ):
                redo.append(definition.name)
                break
    return redo


def extension_state(view):
    """A view's decoded match sets and ``I(V)``, comparable across
    snapshots."""
    return (
        {edge: set(pairs) for edge, pairs in view.edge_matches.items()},
        dict(view.distances.items()) if view.distances is not None else None,
    )


def replay(seed, definitions):
    snapshot = citation_graph(25_000, 60_000, seed=11).freeze()
    state = {d.name: extension_state(materialize(d, snapshot)) for d in definitions}
    nodes = list(snapshot.node_table)
    candidates = candidates_of(definitions, snapshot)
    rng = random.Random(seed)
    rows = []
    for index in range(BATCHES):
        ops = batch(rng, snapshot, nodes, index)
        after = snapshot.applied(ops)
        started = perf_counter()
        redo = cone_rule(definitions, candidates, snapshot, after, ops)
        skip_ms = (perf_counter() - started) * 1e3
        remat_ms, changed = {}, []
        for definition in definitions:
            started = perf_counter()
            view = materialize(definition, after)
            remat_ms[definition.name] = (perf_counter() - started) * 1e3
            fresh = extension_state(view)
            if fresh != state[definition.name]:
                changed.append(definition.name)
            state[definition.name] = fresh
        missed = set(changed) - set(redo)
        assert not missed, f"the rule skipped views that changed: {sorted(missed)}"
        total = sum(remat_ms.values())
        rule = skip_ms + sum(remat_ms[name] for name in redo)
        rows.append((index, len(ops), len(changed), len(redo), total, skip_ms, rule, total / rule))
        snapshot = after
    return rows


def main(argv):
    seeds = [int(arg) for arg in argv] or [0, 1]
    definitions = bounded_suite(citation_views(), 2).definitions()
    for seed in seeds:
        rows = replay(seed, definitions)
        print(f"seed {seed}: {len(definitions)} views, {BATCHES} batches")
        print("batch  ops  changed  redo  remat ms  skip ms  rule ms  gain")
        for index, ops, changed, redo, total, skip_ms, rule, gain in rows:
            print(f"{index:5d}  {ops:3d}  {changed:7d}  {redo:4d}  {total:8.1f}  "
                  f"{skip_ms:7.2f}  {rule:7.1f}  {gain:4.2f}x")
        column = list(zip(*rows))
        print(
            f"median: changed {statistics.median(column[2])}, "
            f"redo {statistics.median(column[3])}, "
            f"remat {statistics.median(column[4]):.1f} ms, "
            f"rule {statistics.median(column[6]):.1f} ms, "
            f"gain {statistics.median(column[7]):.2f}x "
            f"(changed {min(column[2])}-{max(column[2])}, redo {min(column[3])}-{max(column[3])})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
