"""Structure of the benchmark's output and the arithmetic under it.

Nothing here asserts a timing: the smoke runs check names, units,
finiteness and correctness at ``--scale tiny``; the unit tests pin the
normalisation arithmetic, slice cutting and the tail-percentile rule.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perf import run
from perf.batch import Batch
from perf.calibrate import (
    CAL_REF_MS,
    TAIL_LADDER,
    cut_slices,
    percentile,
    slice_factor,
    tail_percentile,
)
from perf.harness import Config, Samples, passes_for, run_workload

HERE = Path(__file__).resolve().parent
BENCHMARK = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


# -- the arithmetic ----------------------------------------------------
def test_slice_factor_scales_to_reference_speed():
    assert slice_factor([CAL_REF_MS, CAL_REF_MS]) == 1.0
    # A machine running the kernel at half speed: times halve.
    assert slice_factor([2 * CAL_REF_MS, 2 * CAL_REF_MS]) == 0.5
    # The factor uses the median of the samples around the slice, so one
    # sample that a stall landed on does not move it.
    assert slice_factor([CAL_REF_MS, CAL_REF_MS, CAL_REF_MS, 9 * CAL_REF_MS]) == 1.0
    assert slice_factor([CAL_REF_MS, 3 * CAL_REF_MS]) == 0.5


def test_samples_normalise_latencies_and_slice_times():
    samples = Samples(ops_per_pass=2, replicas=True)
    samples.add_slice(0.5, 4.0, [1.0, 3.0])
    samples.end_pass()
    assert samples.lat_ms[0] == [500.0, 1500.0]
    assert samples.lat_raw_ms[0] == [1000.0, 3000.0]
    assert samples.throughput() == 2 / 2.0
    assert samples.throughput(raw=True) == 2 / 4.0


def test_replica_passes_drop_a_stalled_pass():
    samples = Samples(ops_per_pass=1, replicas=True)
    for slices in ([1.0, 1.0], [9.0, 1.0], [1.0, 9.0]):
        for seconds in slices:
            samples.add_slice(1.0, seconds, [seconds])
        samples.end_pass()
    # Each slice's median is 1 s although two passes took 10 s.
    assert samples.pass_seconds() == 2.0
    assert samples.latency()["p50"] == 1000.0


def test_racing_passes_use_whole_pass_times_and_pooled_latencies():
    samples = Samples(ops_per_pass=1, replicas=False)
    for slices in ([1.0, 3.0], [3.0, 1.0], [2.0, 4.0]):
        for seconds in slices:
            samples.add_slice(1.0, seconds, [seconds])
        samples.end_pass()
    assert samples.pass_seconds() == 4.0
    assert samples.latency()["samples"] == 6


def test_cut_slices():
    assert cut_slices([]) == []
    assert cut_slices([0.1, 0.1, 0.1], limit=0.4) == [(0, 3)]
    assert cut_slices([0.3, 0.3, 0.3], limit=0.4) == [(0, 1), (1, 2), (2, 3)]
    # An op longer than the limit is a slice of its own.
    assert cut_slices([0.1, 0.9, 0.1, 0.1], limit=0.4) == [(0, 1), (1, 2), (2, 4)]
    costs = [0.05 * (i % 7) for i in range(100)]
    slices = cut_slices(costs, limit=0.4)
    assert [i for start, stop in slices for i in range(start, stop)] == list(range(100))
    assert all(
        sum(costs[start:stop]) <= 0.4 or stop - start == 1 for start, stop in slices
    )


def test_percentile_interpolates():
    assert percentile([1.0], 99.0) == 1.0
    assert percentile([1.0, 3.0], 50.0) == 2.0
    assert percentile([0.0, 10.0, 20.0, 30.0, 40.0], 75.0) == 30.0


def test_tail_percentile_has_ten_samples_beyond():
    assert tail_percentile(1080) == 99.0
    assert tail_percentile(864) == 98.0
    assert tail_percentile(240) == 95.0
    assert tail_percentile(72) == 80.0
    assert tail_percentile(40) == 75.0
    # Too few samples for any percentile: the upper quartile stands in.
    assert tail_percentile(9) == 75.0
    for samples in range(40, 3000, 7):
        p = tail_percentile(samples)
        assert samples * (100.0 - p) / 100.0 >= 10.0
        higher = [q for q in TAIL_LADDER if q > p]
        assert all(samples * (100.0 - q) / 100.0 < 10.0 for q in higher)


def test_passes_are_a_count_fixed_by_seconds():
    assert passes_for(5.0, 0.14, 3) == 36
    assert passes_for(5.0, 2.8, 3) == 3  # never fewer than the minimum
    assert passes_for(30.0, 2.8, 3) == 11


# -- the oracle catches a wrong answer -----------------------------------
def test_corrupted_expected_answer_is_a_failed_op(tmp_path):
    cfg = Config(seed=1, seconds=1.0, trace=False, tiny=True,
                 work_dir=tmp_path, out_dir=tmp_path)
    workload = Batch(cfg, use_views=True)
    build_oracle = workload.oracle

    def corrupted_oracle():
        build_oracle()
        wrong = dict(workload.expected[0])
        wrong["no", "such edge"] = {("bogus", "pair")}
        workload.expected[0] = wrong

    workload.oracle = corrupted_oracle
    report = run_workload(workload, cfg)
    # The one corrupted op fails once in each pass; every other op passes.
    assert report["failed"] == report["passes"]
    assert report["attempted"] == report["passes"] * workload.ops_per_pass
    assert run.result_line(report, BENCHMARK, trace=False)["correct"] is False


# -- all four workloads, end to end, at tiny scale -----------------------
@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """``--workload all`` untraced and traced, side by side; the runs
    must leave no shared-memory segment and no scratch directory behind."""
    out = tmp_path_factory.mktemp("perf")
    shm = Path("/dev/shm")
    segments_before = sorted(shm.iterdir()) if shm.is_dir() else []
    out_dir = HERE / "out"
    scratch_before = set(out_dir.iterdir()) if out_dir.is_dir() else set()
    children = []
    for trace in (0, 1):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", "all",
            "--scale", "tiny", "--seed", "5", "--trace", str(trace),
            "--out", str(out / f"report{trace}.json"),
        ]
        children.append(
            subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        )
    lines = []
    try:
        for child in children:
            stdout, _ = child.communicate(timeout=300)
            assert child.returncode == 0, stdout
            lines.append(json.loads(stdout.rstrip().rsplit("\n", 1)[-1]))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    assert (sorted(shm.iterdir()) if shm.is_dir() else []) == segments_before
    leftovers = set(out_dir.iterdir()) - scratch_before
    assert {p.name for p in leftovers} <= {"oracle-cache"} | {
        f"trace_{name}.json" for name in WORKLOADS
    }
    return lines


@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_matches_benchmark_json(tiny_runs, trace):
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    results = tiny_runs[trace]
    assert list(results) == WORKLOADS
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [spec["name"] for spec in specs]
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]), (workload, spec["name"])
            if not trace:
                assert metric["value"] > 0, (workload, spec["name"])


def test_every_layer_metric_is_measured_by_some_workload(tiny_runs):
    for spec in BENCHMARK["per_layer"]:
        values = [r["metrics"][spec["name"]]["value"] for r in tiny_runs[1].values()]
        # ``serve.shed`` and ``serve.coalesced_ratio`` are 0 when all is well.
        if spec["name"] not in ("serve.shed", "serve.coalesced_ratio"):
            assert any(values), spec["name"]


def test_traced_batch_views_spans_cover_their_roots(tiny_runs):
    trace = json.loads((HERE / "out" / "trace_batch_views.json").read_text())
    spans = trace["spans"]
    roots = [i for i, s in enumerate(spans) if s["name"] == "engine.answer"]
    assert roots
    for root in roots:
        children = [s for s in spans if s["parent"] == root]
        assert {s["name"] for s in children} == {"engine.plan", "engine.execute"}
        covered = sum(s["end"] - s["start"] for s in children)
        assert covered >= 0.9 * (spans[root]["end"] - spans[root]["start"])
