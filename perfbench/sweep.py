"""Run workloads over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9 --trace 0
    python3 perfbench/sweep.py --seeds 0 1 2 --trace 1 --workloads small_k2

Each (workload, seed) run is ``run.py`` in its own fresh process, one at a
time, so ``setup_s`` and ``peak_rss_mb`` belong to that workload alone and
no two workloads compete for memory. For every metric the summary gives
the median over seeds, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (q3 - q1) / median. ``--out`` writes the runs and the summary as
JSON; the recorded baselines in ``baseline/`` were made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import OUT, WORKLOADS  # noqa: E402  (also checks the sources exist)


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write runs and summary here as JSON")
    args = parser.parse_args()

    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **quartiles([r["metrics"][name]["value"] for r in runs])}
                   for name in names}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary["error_rate"] = {"unit": "1", "median": failed / attempted,
                                 "failed": failed, "attempted": attempted}
        environment = json.loads((OUT / f"{workload}-seed{args.seeds[0]}-trace"
                                  f"{args.trace}.json").read_text())["environment"]
        report["workloads"][workload] = {"environment": environment,
                                         "summary": summary, "runs": runs}

        print(f"\n{workload}: {len(runs)} seeds, all correct: "
              f"{all(r['correct'] for r in runs)}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}  unit")
        for name, s in summary.items():
            if "q1" in s:
                print(f"  {name:40s} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:8.3f}  {s['unit']}")
            else:
                print(f"  {name:40s} {s['median']:12.6g} ({failed} of {attempted})")
        print(flush=True)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
