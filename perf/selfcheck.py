"""Does the benchmark agree with itself?

    python3 perf/selfcheck.py --sets 2 --runs 10 [--workload NAME ...]

Runs every workload ``--runs`` times per set, each run with another
seed, the sets interleaved so that machine drift hits them alike.  Per
workload and end-to-end metric it prints both set medians, how much
worse the second is than the first, the metric's bound, and the spread
(interquartile range over median) of the normalised and the raw values.
Exits non-zero when a spread other than ``setup_s``'s exceeds its bound,
or a second median is worse than the first by more than the bound: the
acceptance rule for the benchmark itself, and the first thing to run
when a later change's numbers look odd.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perf.run import DEFAULT_SEED, load_benchmark  # noqa: E402


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, args) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        out = Path(scratch) / "report.json"
        subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--scale", args.scale, "--out", str(out),
            ],
            stdout=subprocess.DEVNULL,
            check=True,
        )
        return json.loads(out.read_text())


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="write every run's report here as JSON")
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least two sets of at least two runs")
    workloads = args.workload or names
    (HERE / "out").mkdir(exist_ok=True)

    reports = {(w, s): [] for w in workloads for s in range(args.sets)}
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in workloads:
                report = run_once(workload, DEFAULT_SEED + run, args)
                reports[workload, which].append(report)
                print(
                    f"run {run} set {which} {workload}: failed={report['failed']}"
                    + (" noisy" if report["noisy"] else ""),
                    file=sys.stderr,
                )

    if args.out:
        Path(args.out).write_text(
            json.dumps([
                dict(report, set=which)
                for (_, which), runs in reports.items()
                for report in runs
            ])
        )

    breaches = 0
    header = (
        f"{'workload':<13}{'metric':<18}{'median A':>12}{'median B':>12}"
        f"{'B worse':>9}{'bound':>7}{'spread':>8}{'raw spr':>8}"
    )
    print(header)
    for workload in workloads:
        failed = sum(
            r["failed"] for which in range(args.sets) for r in reports[workload, which]
        )
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sets = [
                [r["end_to_end"][name] for r in reports[workload, which]]
                for which in range(args.sets)
            ]
            medians = [statistics.median(values) for values in sets]
            worse = max(
                worse_by(medians[0], later, spec["better"]) for later in medians[1:]
            )
            spreads = [spread(values) for values in sets]
            raws = [
                spread([r["raw"][name] for r in reports[workload, which]])
                for which in range(args.sets)
                if name in reports[workload, which][0]["raw"]
            ]
            breach = (
                worse > bound
                or (name != "setup_s" and max(spreads) > bound)
                or failed > 0
            )
            breaches += breach
            print(
                f"{workload:<13}{name:<18}{medians[0]:>12.4f}{medians[1]:>12.4f}"
                f"{worse:>+9.1%}{bound:>7.0%}{max(spreads):>8.1%}"
                + (f"{max(raws):>8.1%}" if raws else f"{'-':>8}")
                + ("  BREACH" if breach else "")
                + ("  (above bound/3)" if not breach and name != "setup_s"
                   and max(spreads) > bound / 3 else "")
            )
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
