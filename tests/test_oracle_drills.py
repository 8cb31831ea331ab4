"""Drills for the oracle machine: it must catch known mutants, fast.

A drill rebuilds one function of the package from its own source with
one deliberate fault, patches it in, and runs
:class:`test_oracle_machine.OracleMachine` with shrinking off (a real
failure reports unshrunk, in seconds) under a fixed derandomized
budget.  The machine must fail, and from the mutated function: a
failure elsewhere (a broken patch, a broken machine) tests nothing.
``TIMEOUT_S`` is a generous wall-clock ceiling, not a speed target:
the unmutated machine spends its whole budget in about 9 s on a 2-core
box, and a caught mutant fails well inside it.

* A batch that reads old ids: ``CompactGraph.applied`` reads the
  key -> id map off ``self._ids``, which a snapshot attached from disk
  has not built, instead of ``self._id_map()``.  Every kept view state
  rests on the ids a batch keeps.
* A self-loop's delete that withdraws its node for one pattern edge
  only: ``repair`` skips recounting, for every later pattern edge, a
  pair an earlier one already withdrew, so a data self-loop witnessing
  both edges of a pattern 2-cycle leaves a dead pair behind (the bug
  a same-label cycle test pins in ``test_maintenance.py``).  The fault
  is silent where it runs, so the machine must fail on a wrong answer
  or state, with the mutant called.
"""

import inspect
import textwrap
import time

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.graph import compact
from repro.graph.compact import CompactGraph
from repro.simulation import repair

from test_oracle_machine import OracleMachine

TIMEOUT_S = 60.0
DRILL = settings(
    max_examples=200,
    stateful_step_count=20,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
    print_blob=False,
)


def mutant(function, module, old: str, new: str):
    """``function`` recompiled from its source in ``module``'s globals,
    with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def test_the_machine_catches_a_refresh_that_reads_old_ids():
    started = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            CompactGraph, "applied",
            mutant(CompactGraph.applied, compact, "self._id_map()", "self._ids"),
        )
        with pytest.raises(Exception) as caught:
            run_state_machine_as_test(OracleMachine, settings=DRILL)
    assert any(entry.name == "applied" for entry in caught.traceback), caught.getrepr()
    elapsed = time.perf_counter() - started
    assert elapsed <= TIMEOUT_S, f"the machine took {elapsed:.1f} s to catch the mutant"


def test_the_machine_catches_a_self_loop_delete_that_withdraws_one_edge():
    started = time.perf_counter()
    faulty = mutant(
        repair.repair, repair, "for v in dirty[u]:",
        "for v in dirty[u] - set().union(*withdrawn.values()):",
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return faulty(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair, "repair", counted)
        patch.setattr("repro.views.maintenance.repair", counted)
        with pytest.raises(AssertionError) as caught:
            run_state_machine_as_test(OracleMachine, settings=DRILL)
    assert calls and caught.traceback[-1].path.name == "test_oracle_machine.py", caught.getrepr()
    elapsed = time.perf_counter() - started
    assert elapsed <= TIMEOUT_S, f"the machine took {elapsed:.1f} s to catch the mutant"
