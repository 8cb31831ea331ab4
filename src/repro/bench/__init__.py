"""Benchmark harness regenerating every figure of the paper's evaluation.

Each experiment of Section VII / Fig. 8 has a runner in
:mod:`~repro.bench.experiments` producing the same rows/series the paper
plots; :mod:`~repro.bench.workloads` builds the datasets, view caches
and query workloads; :mod:`~repro.bench.reporting` renders tables.

Run the full sweep with::

    python -m repro.bench.run_all            # full scale (~minutes)
    python -m repro.bench.run_all --scale .5 # half-size quick pass

This is the one implementation of each Fig. 8 experiment; end-to-end
and per-layer performance of the system is measured by ``perf/``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "EXPERIMENTS": "repro.bench.experiments",
    "Table": "repro.bench.reporting",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
