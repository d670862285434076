"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload em_fig_k --seed 0 --seconds 36 --trace 0

Pins every BLAS to one thread before numpy loads, imports moelearn from the
``src`` directory next to this one, and runs the workload's fixed trial list
(see workloads.py) through ``experiments.run_trial``.

``--trace 0`` times ``setup_s`` in fresh child processes, then repeats the
pass while the time budget allows and reports the end-to-end metrics.
``--trace 1`` runs the pass untraced, with spans around every layer
(tracing.py), and untraced again, requires all three to agree bit for bit,
and reports the per-layer metrics and the tracing overhead.

Every trial is checked against reference.py. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The full result, with the environment, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
DIFFERS = "output differs from the first pass"

# name -> unit of the end-to-end metrics of an untraced run
END_TO_END = {"setup_s": "s", "wall_s": "s", "fit_s.p50": "s", "peak_rss_mb": "MB",
              "param_error.median": "1", "converged_frac": "1"}

if not (SRC / "moelearn" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no moelearn sources at {SRC}")
sys.path.insert(0, str(SRC))

import moelearn  # noqa: E402
from moelearn import experiments  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, build_trials  # noqa: E402

if Path(moelearn.__file__).resolve().parent != SRC / "moelearn":
    raise SystemExit(f"perfbench: imported moelearn from {moelearn.__file__}, not {SRC}")


@dataclass
class PassResult:
    """One pass over a trial list: timings, checked fields, full outputs."""

    wall_s: float = 0.0
    trial_s: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)     # trial key -> checked fields
    outputs: dict = field(default_factory=dict)    # trial key -> canonical JSON
    errors: dict = field(default_factory=dict)     # trial key -> exception text


def run_pass(trials) -> PassResult:
    """Run every trial once, in order; an exception fails that trial only."""
    result = PassResult()
    clock = time.perf_counter
    start = clock()
    for trial in trials:
        t0 = clock()
        try:
            out = experiments.run_trial(trial.config, trial.index)
        except Exception as exc:   # the pass goes on; the trial counts as failed
            if not isinstance(exc, moelearn.MoeError):
                traceback.print_exc()
            result.errors[trial.key] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            result.trial_s.append(clock() - t0)
        result.fields[trial.key] = reference.checked_fields(out)
        result.outputs[trial.key] = json.dumps(out, sort_keys=True)
    result.wall_s = clock() - start
    return result


def failures(passes: list[PassResult], trials, expected: dict | None) -> dict:
    """(pass number, trial key) -> problems, for every failed trial execution:
    it raised, it failed the reference or invariant check, or its output
    differs from the first pass."""
    found = {}
    first = passes[0]
    for number, result in enumerate(passes):
        for trial in trials:
            key = trial.key
            if key in result.errors:
                found[number, key] = [f"raised {result.errors[key]}"]
                continue
            want = expected.get(key) if expected is not None else None
            if expected is not None and want is None:
                problems = ["no stored reference for this trial"]
            else:
                problems = reference.check(result.fields[key], want)
            if number and result.outputs[key] != first.outputs.get(key):
                problems.append(DIFFERS)
            if problems:
                found[number, key] = problems
    return found


def setup_time(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import moelearn and build
    the workload's configs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository holding this checkout, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names its program even
    where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "moelearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(setup_s: float, passes: list[PassResult]) -> dict:
    """Each trial's time is its median over the passes, which damps a trial
    slowed by a burst of load from other tenants of the machine; ``wall_s``
    sums those medians over the trial list. ``param_error.median`` is the
    median E(A, W) of each cell, averaged over the cells, so that it stays
    inside the range of one cell's errors when cells differ widely."""
    first = passes[0]
    by_cell = {}
    for key, fields in first.fields.items():
        by_cell.setdefault(key.rsplit("/", 1)[0], []).append(fields["param_error"])
    converged = [f["converged"] for f in first.fields.values() if "converged" in f]
    trial_s = [statistics.median(times) for times in zip(*(p.trial_s for p in passes))]
    return {
        "setup_s": setup_s,
        "wall_s": sum(trial_s),
        "fit_s.p50": statistics.median(trial_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "param_error.median": statistics.mean(statistics.median(errors)
                                              for errors in by_cell.values())
                              if by_cell else float("nan"),
        "converged_frac": sum(converged) / len(converged) if converged else float("nan"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="moelearn benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    trials = build_trials(args.workload, args.seed)
    if args.setup_probe:
        return 0

    expected = reference.load(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "reference": "stored" if expected is not None else "invariants only"}

    if args.trace:
        from tracing import PER_LAYER, Tracer

        # Untraced passes on both sides of the traced one, so that warm-up
        # and drift in machine load do not land on one side of the overhead.
        before = run_pass(trials)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(trials)
        finally:
            tracer.uninstall()
        after = run_pass(trials)
        passes = [before, traced, after]
        untraced_wall_s = (before.wall_s + after.wall_s) / 2
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = traced.wall_s - untraced_wall_s
        units = PER_LAYER
        tracer.write(OUT / f"{tag}.spans.jsonl")
        record["untraced_wall_s"] = untraced_wall_s
        record["traced_wall_s"] = traced.wall_s
        record["spans"] = tracer.label_summary()
    else:
        setup_s = setup_time(args.workload, args.seed)
        passes = [run_pass(trials)]
        deadline = started + args.seconds
        while time.perf_counter() + statistics.median(p.wall_s for p in passes) <= deadline:
            passes.append(run_pass(trials))
        metrics = end_to_end(setup_s, passes)
        units = END_TO_END

    found = failures(passes, trials, expected)
    problems = [f"pass {number} {key}: {'; '.join(lines)}"
                for (number, key), lines in found.items()]
    attempted = len(passes) * len(trials)
    failed = len(found)
    record.update(passes=len(passes), pass_wall_s=[p.wall_s for p in passes],
                  trial_s=[p.trial_s for p in passes],
                  trials=passes[0].fields, problems=problems,
                  metrics={name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(trials)} trials, {failed} of {attempted} "
          f"failed (error_rate {failed / attempted:.4g}), reference: {record['reference']}")
    if args.trace:
        print(f"  traced pass reproduces untraced pass: "
              f"{not any(DIFFERS in lines for lines in found.values())}; "
              f"overhead {metrics['trace.overhead_s']:.4f} s "
              f"on {record['untraced_wall_s']:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    if args.trace:
        print(f"  {'span':40s} {'calls':>10s} {'total_s':>12s} {'self_s':>12s}")
        for label, entry in sorted(tracer.label_summary().items()):
            print(f"  {label:40s} {entry['calls']:10d} {entry['total_s']:12.4f} "
                  f"{entry['self_s']:12.4f}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
