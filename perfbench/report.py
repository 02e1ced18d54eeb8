"""Run the benchmark on every workload and summarise the end-to-end metrics.

    python3 perfbench/report.py --runs 10 [--seconds 25] [--first-seed 1]
                                [--workload NAME ...] [--baseline perfbench/BASELINE.json]

Run i of a workload uses seed first-seed + i.  For each workload and metric
it prints the median, the quartiles and their distance as a share of the
median (the spread the metric's bound is compared with), plus the failed
share of attempted calls and the sample counts, and then the largest self
times of one traced run (seed first-seed).  ``--baseline`` also writes
the table as JSON together with the Python version, git revision and the
number of usable CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if not done.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} printed no result:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    details = next(
        json.loads(line[len("details: "):])
        for line in done.stderr.splitlines()
        if line.startswith("details: ")
    )
    return result, details


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--baseline", type=Path, help="also write the summary here")
    args = parser.parse_args()

    table: dict[str, dict] = {}
    all_correct = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = [one_run(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        attempted = sum(result["attempted"] for result, _ in runs)
        failed = sum(result["failed"] for result, _ in runs)
        all_correct &= all(result["correct"] for result, _ in runs)
        entry = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "failed_frac": failed / attempted,
            "samples": [details["samples"] for _, details in runs],
            "samples_beyond_p90": [details["samples_beyond_p90"] for _, details in runs],
            "metrics": {},
        }
        top = [details["top_rung_ms"] for _, details in runs if "top_rung_ms" in details]
        if top:
            entry["top_rung_ms"] = summarise(top)
        print(f"{workload}: failed_frac {entry['failed_frac']:.3g} over {attempted} calls, "
              f"samples per run {entry['samples']}, beyond p90 {entry['samples_beyond_p90']}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats = summarise([result["metrics"][name]["value"] for result, _ in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"], values=[
                result["metrics"][name]["value"] for result, _ in runs
            ])
            entry["metrics"][name] = stats
            print(f"  {name:16s} {stats['median']:12.5g} {metric['unit']:6s} "
                  f"q1 {stats['q1']:10.5g}  q3 {stats['q3']:10.5g}  "
                  f"spread {stats['spread']:6.3f}  bound {metric['bound']}")
        if top:
            print(f"  {'top_rung_ms':16s} {entry['top_rung_ms']['median']:12.5g} ms")
        traced, _ = one_run(workload, args.first_seed, args.seconds, trace=1)
        all_correct &= traced["correct"]
        layers = {name: value["value"] for name, value in traced["metrics"].items()}
        entry["trace"] = layers
        self_times = {name: value for name, value in layers.items() if name.endswith(".self_s")}
        total = sum(self_times.values())
        print(f"  traced, seed {args.first_seed}: overhead {layers['trace.overhead_frac']:.3f}; "
              "self time by span:")
        for name, value in sorted(self_times.items(), key=lambda item: -item[1])[:6]:
            print(f"    {name:44s} {value:9.4f} s  {value / total:6.1%}")
        table[workload] = entry

    if args.baseline:
        baseline = {
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": args.seconds,
            "workloads": table,
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
