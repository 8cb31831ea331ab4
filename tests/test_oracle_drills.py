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

* A refresh that reads old ids: ``CompactGraph.refreshed`` reads the
  predecessor's key -> id map off ``old._ids``, which a snapshot
  attached from disk has not built, instead of ``old._id_map()``.
  Every kept view state rests on the ids a refresh keeps.
"""

import inspect
import textwrap
import time

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis.stateful import run_state_machine_as_test

from repro.graph import compact
from repro.graph.compact import CompactGraph

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
        refreshed = CompactGraph.refreshed.__func__
        patch.setattr(
            CompactGraph, "refreshed", mutant(refreshed, compact, "old._id_map()", "old._ids")
        )
        with pytest.raises(Exception) as caught:
            run_state_machine_as_test(OracleMachine, settings=DRILL)
    assert any(entry.name == "refreshed" for entry in caught.traceback), caught.getrepr()
    elapsed = time.perf_counter() - started
    assert elapsed <= TIMEOUT_S, f"the machine took {elapsed:.1f} s to catch the mutant"
