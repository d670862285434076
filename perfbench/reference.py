"""Per-trial reference outputs and the check every benchmark run applies.

``reference/<workload>.json`` maps a seed to the outputs of every trial of
one pass, as this repository's code produced them with one BLAS thread.
A trial passes when its outputs match the stored ones: the three scores
within ``ABS_TOL``, ``iterations`` and ``converged`` exactly. A seed with no
stored reference gets the invariant check instead: every score finite,
``regressor_fit`` and ``gating_fit`` in [0, 1].

Run as a script to (re)write the references for some seeds:

    python3 perfbench/reference.py --workload em_fig_k --seeds 0 1 2
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SCORES = ("param_error", "regressor_fit", "gating_fit")
COUNTS = ("iterations", "converged")
# Scores repeat bitwise across runs at one BLAS thread; the tolerance leaves
# room for changes that reorder floating-point sums without changing the fit.
ABS_TOL = 1e-6


def checked_fields(out: dict) -> dict:
    """The subset of a ``run_trial`` result that the check compares."""
    return {key: out[key] for key in SCORES + COUNTS if key in out}


def load(workload: str, seed: int) -> dict | None:
    """Trial key -> stored fields for ``seed``, or None if none are stored."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check(fields: dict, expected: dict | None) -> list[str]:
    """Problems with one trial's fields; empty when the trial passes."""
    problems = []
    for key in SCORES:
        value = fields.get(key)
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{key}={value!r} is not a finite number")
        elif key != "param_error" and not 0.0 <= value <= 1.0 + 1e-12:
            problems.append(f"{key}={value!r} is outside [0, 1]")
    if expected is None:
        return problems
    for key in SCORES:
        value, want = fields.get(key), expected.get(key)
        if isinstance(value, float) and not abs(value - want) <= ABS_TOL:
            problems.append(f"{key}={value!r}, reference {want!r}")
    for key in COUNTS:
        if fields.get(key) != expected.get(key):
            problems.append(f"{key}={fields.get(key)!r}, reference {expected.get(key)!r}")
    return problems


def main() -> None:
    import argparse

    import run   # pins BLAS threads and puts the sources on the path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    path = REFERENCE_DIR / f"{args.workload}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    for seed in args.seeds:
        result = run.run_pass(run.build_trials(args.workload, seed))
        if result.errors:
            raise SystemExit(f"seed {seed}: trials raised {result.errors}")
        stored["seeds"][str(seed)] = result.fields
        print(f"{args.workload} seed {seed}: {len(result.fields)} trials", flush=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    seeds = sorted(stored["seeds"].items(), key=lambda kv: int(kv[0]))
    path.write_text(f'{{"abs_tol": {ABS_TOL!r}, "seeds": {{\n'
                    + ",\n".join(f"{json.dumps(seed)}: {json.dumps(fields, sort_keys=True)}"
                                  for seed, fields in seeds)
                    + "\n}}\n")


if __name__ == "__main__":
    main()
