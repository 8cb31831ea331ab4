"""The benchmark's one command.

    python3 perf/run.py --workload NAME|all --seed S [--seconds N]
                        [--trace [0|1]] [--scale full|tiny] [--out FILE]

Prints every metric by name with its unit, then, as the last line of
standard output, the result object ``BENCHMARK.json``'s contract asks
for: end-to-end metrics without ``--trace``, per-layer metrics with it.
Each workload runs in a process of its own (``all`` spawns one per
workload), so peak memory and GC state never leak between workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: The seed results are quoted at (README.md names a held-out one).
DEFAULT_SEED = 20140331


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` unless already there.

    String hashing is randomised per process, which reorders every set
    and dict of strings the program walks: the same code then ran the
    ``batch_views`` pass in 128.8-147.3 ms across five processes, against
    135.0-138.2 ms with the seed pinned.  Program subprocesses inherit it.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_workload(name: str, cfg):
    # Imported here: they pull in ``repro``, which ``--help`` need not.
    from perf.batch import Batch
    from perf.boot import ColdBoot
    from perf.serve import ServeMixed

    factories = {
        "batch_views": lambda: Batch(cfg, use_views=True),
        "batch_direct": lambda: Batch(cfg, use_views=False),
        "serve_mixed": lambda: ServeMixed(cfg),
        "cold_boot": lambda: ColdBoot(cfg),
    }
    return factories[name]()


def result_line(report: dict, benchmark: dict, trace: bool) -> dict:
    """The contract's result object for one workload's report."""
    if trace:
        specs = benchmark["per_layer"]
        # A layer the workload bypasses did no work there: it reports 0.
        values = {spec["name"]: 0.0 for spec in specs}
        values.update(report["per_layer"])
    else:
        specs = benchmark["end_to_end"]
        values = report["end_to_end"]
    names = [spec["name"] for spec in specs]
    if sorted(names) != sorted(values):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }


def print_report(report: dict, line: dict) -> None:
    print(
        f"== {report['workload']} seed={report['seed']} passes={report['passes']} "
        f"ops={report['attempted']} failed={report['failed']} "
        f"measured={report['measured_raw_s']:.1f}s raw"
        + ("  [noisy: calibration p90/p10 > 2]" if report["noisy"] else "")
    )
    print(
        f"   latency over {report['latency_samples']} samples; tail = "
        f"p{report['tail_percentile']:g} "
        f"({report['tail_samples_beyond']:.1f} samples beyond)"
    )
    wall = ", ".join(f"{k} {v:.1f}s" for k, v in report["harness_wall_s"].items())
    print(f"   harness wall time: {wall}")
    for name, metric in line["metrics"].items():
        print(f"   {name:<40} {metric['value']:>14.4f} {metric['unit']}")


def run_one(name: str, args, benchmark: dict) -> dict:
    from perf.harness import Config, run_workload

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    # Everything temporary -- ours and the program's spill files -- lands
    # under the checkout and goes away with ``work_dir``.
    tempfile.tempdir = str(work_dir)
    try:
        cfg = Config(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            tiny=args.scale == "tiny",
            work_dir=work_dir,
            out_dir=out_dir,
        )
        report = run_workload(make_workload(name, cfg), cfg)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
    spans = report.pop("spans", None)
    if spans is not None:
        trace_file = out_dir / f"trace_{name}.json"
        trace_file.write_text(
            json.dumps({"workload": name, "seed": args.seed, "spans": spans})
        )
    line = result_line(report, benchmark, bool(args.trace))
    print_report(report, line)
    report["result"] = line
    return report


def run_all(names, args) -> list:
    """One child process per workload; their reports, in order."""
    reports = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for name in names:
            out = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale,
                "--out", str(out),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
            if child.returncode:
                raise SystemExit(f"{name}: exit code {child.returncode}")
            reports.append(json.loads(out.read_text()))
    return reports


def main(argv=None) -> int:
    if argv is None:
        pin_hash_seed()
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="measured time per workload at reference machine speed",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans and report per-layer metrics",
    )
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="also write the full report here as JSON")
    args = parser.parse_args(argv)

    if args.workload == "all":
        reports = run_all(names, args)
        last = {r["workload"]: r["result"] for r in reports}
        document = reports
    else:
        document = run_one(args.workload, args, benchmark)
        last = document["result"]
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
