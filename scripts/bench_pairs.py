"""Interleaved parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --title "what changed" --claim wide_moments:wall_s --out BENCH_4.json \\
        [--seeds 0 1 2 3 4 5 6 7 8 9] [--workloads W ...] [--unused-seeds 2 4 ...]

``--parent`` and ``--change`` are two source trees with the same
``perfbench/``. For each workload and seed, ``perfbench/sweep.py --workloads W
--seeds S --trace 0`` runs once in each tree, one process at a time, the two
trees alternating which runs first (the parent first on even seeds). A pair is
one seed. For every end-to-end metric of ``BENCHMARK.json`` the output gives,
per side, the median, quartiles and spread (sweep.py's ``quartiles``) and the
values in seed order, and counts the pairs the change wins. ``--claim W:M``
also tests the claim rule: the change wins at least 9 of 10 pairs and its
median is better than the parent's by more than the parent's q3 - q1.

Each workload then runs traced (``--trace 1``) once per tree at the first
seed, for its per-layer metrics. Last, every trial of every (workload, seed)
runs once more in each tree, BLAS on one thread, and the trials whose
``run_trial`` output differs as canonical JSON are counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from sweep import quartiles  # noqa: E402

CLAIM_WINS = 9

# Prints {trial key: sha256 of the canonical JSON of its run_trial output}.
_DUMP_OUTPUTS = """
import hashlib, json, sys
sys.path[:0] = ["perfbench", "src"]
from moelearn import experiments
from workloads import build_trials
print(json.dumps({t.key: hashlib.sha256(json.dumps(
    experiments.run_trial(t.config, t.index), sort_keys=True).encode()).hexdigest()
    for t in build_trials(sys.argv[1], int(sys.argv[2]))}))
"""

_ONE_THREAD = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def sweep(tree: Path, workload: str, seed: int, trace: int, work: Path) -> dict:
    """One sweep.py run in ``tree``: its result line plus the full record
    run.py left in that tree's perfbench/out/."""
    out = work / f"{tree.name}-{workload}-{seed}-{trace}.json"
    subprocess.run([sys.executable, "perfbench/sweep.py", "--workloads", workload,
                    "--seeds", str(seed), "--trace", str(trace), "--out", str(out)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL, timeout=1800)
    run = json.loads(out.read_text())["workloads"][workload]["runs"][0]
    record = json.loads((tree / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**run, "record": record}


def output_hashes(tree: Path, workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _DUMP_OUTPUTS, workload, str(seed)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **_ONE_THREAD}, timeout=1800)
    return json.loads(done.stdout)


def compare(parent: list, change: list, better: str) -> dict:
    def wins(p, c):
        return c < p if better == "lower" else c > p

    median_p, median_c = statistics.median(parent), statistics.median(change)
    return {"parent": {**quartiles(parent), "values": parent},
            "change": {**quartiles(change), "values": change},
            "change_wins": sum(wins(p, c) for p, c in zip(parent, change)),
            "ties": sum(p == c for p, c in zip(parent, change)),
            "pairs": len(parent),
            "median_change_over_parent": median_c / median_p if median_p else None}


def claim_result(entry: dict, better: str, unused_seeds: list) -> dict:
    p, c = entry["parent"], entry["change"]
    drop = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    return {"met": entry["change_wins"] >= CLAIM_WINS and drop > iqr,
            "parent_median": p["median"], "change_median": c["median"],
            "median_gain_frac": drop / p["median"] if p["median"] else None,
            "median_gain": drop, "parent_q3_minus_q1": iqr,
            "change_wins": entry["change_wins"], "pairs": entry["pairs"],
            "seeds_not_used_while_writing_the_change": unused_seeds}


def source_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "moelearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--title", default="")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--unused-seeds", type=int, nargs="*", default=[],
                        help="seeds not run while the change was written")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]

    report = {
        "title": args.title,
        "parent_commit": args.parent_commit,
        "source_sha256": {side: source_sha256(tree) for side, tree in trees.items()},
        "environment": None,
        "method": (f"Each (workload, seed) ran as `python3 perfbench/sweep.py --workloads W "
                   f"--seeds S --trace 0` in the parent tree and in the change tree, one "
                   f"process at a time, the two sides alternating which ran first (parent "
                   f"first on even seeds); made by scripts/bench_pairs.py. Seeds "
                   f"{args.seeds}; run length {benchmark['run_seconds']} s (BENCHMARK.json). "
                   f"Quartiles are statistics.quantiles(n=4) over the seeds, from "
                   f"perfbench/sweep.py's quartiles. A pair is one seed; change_wins counts seeds where the "
                   f"change reads better."),
        "claim": None,
        "end_to_end": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in args.seeds:
                order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
                for side in order:
                    runs[side].append(sweep(trees[side], workload, seed, 0, work))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}"
                    for side in ("parent", "change")), flush=True)
            report["environment"] = report["environment"] or runs["change"][0]["record"][
                "environment"]
            report["end_to_end"][workload] = {
                "seeds": args.seeds,
                "metrics": {name: {"unit": units[name], **compare(
                    [r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]], better[name])}
                    for name in better},
                "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
                "failed_of_attempted": {side: [sum(r["failed"] for r in runs[side]),
                                               sum(r["attempted"] for r in runs[side])]
                                        for side in runs},
            }

        if args.claim:
            workload, metric = args.claim.split(":")
            report["claim"] = {"metric": metric, "workload": workload,
                               "rule": f"change wins >= {CLAIM_WINS}/10 pairs and median "
                                       f"gain > parent q3 - q1",
                               "result": claim_result(
                                   report["end_to_end"][workload]["metrics"][metric],
                                   better[metric], args.unused_seeds)}

        trace_seed, traced = args.seeds[0], {}
        for workload in workloads:
            traced[workload] = {}
            for side, tree in trees.items():
                run = sweep(tree, workload, trace_seed, 1, work)
                traced[workload][side] = {
                    "correct": run["correct"], "failed": run["failed"],
                    "attempted": run["attempted"],
                    "untraced_wall_s": run["record"]["untraced_wall_s"],
                    "per_layer": {name: m["value"] for name, m in run["metrics"].items()},
                }
            print(f"{workload} traced seed {trace_seed} done", flush=True)
        report["trace_seed"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {trace_seed} "
                       f"--trace 1 (through sweep.py)",
            "seed": trace_seed, "workloads": traced}

    differ, total = {}, 0
    for workload in workloads:
        differ[workload] = 0
        for seed in args.seeds:
            hashes = {side: output_hashes(tree, workload, seed) for side, tree in trees.items()}
            total += len(hashes["change"])
            differ[workload] += sum(hashes["parent"].get(key) != digest
                                    for key, digest in hashes["change"].items())
    report["bit_identical_outputs"] = {
        "method": "every run_trial output of every workload and seed, BLAS on one "
                  "thread, compared between the two trees as canonical JSON "
                  "(json.dumps(sort_keys=True), floats at full repr precision)",
        "trials": total, "differ": differ}

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
