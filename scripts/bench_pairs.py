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
seed, for its per-layer metrics; its ``counts_differ`` lists the per-layer
metrics of unit ``count`` in ``BENCHMARK.json`` whose values differ between
the two trees (empty when a change keeps every count), and its
``layer_ratios`` the change/parent ratio of every per-layer time (the metrics
named ``*.s``), None where the parent's reads 0. Then every trial of
every (workload, seed) runs once more in each tree, BLAS on one thread, and
the trials whose ``run_trial`` output differs as canonical JSON are counted.
Per workload it also records, over the fields the benchmark's reference check
reads (``perfbench/reference.py``'s ``checked_fields``), the largest |change -
parent| of each score and the number of trials whose ``iterations`` or
``converged`` differ, and the largest |change - parent| over every numeric
leaf of the outputs, curves included. Each workload also records, per seed and
side, the wall time of the first pass against the median of the later passes
of its sweep, so a cost paid once per process (a module first imported by a
trial) shows where it lands. ``cell_s`` gives, per workload and cell, the
cell's time in each untraced run (the sum of its trials' per-pass medians, as
``wall_s`` sums all of them), its quartiles and values per side over the
seeds, and the change/parent ratio of the medians; the columns of a record's
``trial_s`` follow ``build_trials``' execution order, which the tree's
``perfbench/workloads.py`` gives. ``setup_s`` is split by layer: ``python -X
importtime -c "import moelearn"`` runs three times in each tree, and each
module's self time goes to ``numpy`` or ``scipy`` when it, or the outermost
module that imported it, belongs to that package, else to ``moelearn`` for the
package's own modules, else to ``other`` (interpreter start-up and the
standard library moelearn imports itself); the medians and
the count of ``scipy`` modules loaded are recorded. Last, the Tier-1 verify
command (``TIER1``) runs once in each tree, BLAS on one thread, and its wall time,
pytest summary line and ten slowest tests (``--durations=10``, as ``{test id:
seconds}``) are recorded. ``fit_imports`` lists, per tree, workload and cell,
the modules that cell's first trial imports beyond ``import moelearn`` (probed
in a fresh interpreter), so a fit that starts loading a library shows it.
``memory_layers`` gives, per tree and workload, the ``tracemalloc`` peak of
each stage in ``MEMORY_LAYERS`` over one pass at the first seed: the largest
rise of a call's traced peak above the memory traced at its start, so an RSS
change can be put on the stage that moved it. The
line count of each tree's
``src/moelearn/*.py`` and the field count of its ``ExperimentConfig`` (the
settable values of a fit and its experiment) are recorded too, so a change
that deletes code or settings shows it beside the metrics. Each tree also runs
every suite once at ``trials=2, seed=3, n=800`` (BLAS on one thread), realdata
on a stand-in CSV written once at a fixed path in the work directory; the
sha256 of every file the suites write is recorded per tree, with the list of
files that differ between the trees, a unified diff of each and, for each
CSV both trees wrote that differs, the header columns whose values differ.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import io
import itertools
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from reference import COUNTS, SCORES  # noqa: E402
from sweep import quartiles  # noqa: E402

CLAIM_WINS = 9
IMPORT_PROBES = 3
LIBRARY_LAYERS = ("numpy", "scipy")

# Prints {trial key: {"sha256": of the canonical JSON of its run_trial output,
# "checked": the fields the reference check reads, "output": the output}}.
_DUMP_OUTPUTS = """
import hashlib, json, sys
sys.path[:0] = ["perfbench", "src"]
from moelearn import experiments
from reference import checked_fields
from workloads import build_trials
outputs = {}
for t in build_trials(sys.argv[1], int(sys.argv[2])):
    out = experiments.run_trial(t.config, t.index)
    outputs[t.key] = {"sha256": hashlib.sha256(json.dumps(out, sort_keys=True).encode())
                      .hexdigest(), "checked": checked_fields(out), "output": out}
print(json.dumps(outputs))
"""

# Prints the trial keys of workload sys.argv[1] under seed sys.argv[2], in the
# order a pass runs them.
_TRIAL_KEYS = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
from workloads import build_trials
print(json.dumps([t.key for t in build_trials(sys.argv[1], int(sys.argv[2]))]))
"""

# Runs the first trial of cell sys.argv[3] of workload sys.argv[1] under seed
# sys.argv[2] and prints the sorted names of the modules it imported that
# importing moelearn and building the pass had not.
_FIT_IMPORTS = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
from moelearn import experiments
from workloads import build_trials
trial = next(t for t in build_trials(sys.argv[1], int(sys.argv[2])) if t.cell == sys.argv[3])
before = set(sys.modules)
experiments.run_trial(trial.config, trial.index)
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Runs every trial of workload sys.argv[1] under seed sys.argv[2] with
# tracemalloc on, the functions of each layer of the JSON sys.argv[3] rebound
# in every moelearn module that holds them, and prints {layer: the largest
# rise of one call's traced peak above the memory traced at its start, in
# bytes}. The layers must not nest: each call resets the peak.
_MEMORY_LAYERS = """
import importlib, json, sys, tracemalloc
sys.path[:0] = ["perfbench", "src"]
from moelearn import experiments
from workloads import build_trials
layers = json.loads(sys.argv[3])
peaks = dict.fromkeys(layers, 0)
def wrap(layer, fn):
    def traced(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks[layer] = max(peaks[layer], tracemalloc.get_traced_memory()[1] - start)
    return traced
for layer, targets in layers.items():
    for target in targets:
        module, attr = target.rsplit(".", 1)
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrap(layer, original)
        for name, holder in list(sys.modules.items()):
            if name.split(".")[0] == "moelearn":
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
trials = build_trials(sys.argv[1], int(sys.argv[2]))
tracemalloc.start()
for t in trials:
    experiments.run_trial(t.config, t.index)
print(json.dumps(peaks))
"""

# layer -> the functions whose calls make it, for memory_layers
MEMORY_LAYERS = {
    "sampling": ["moelearn.model.sample_dataset"],
    "accumulate": ["moelearn.moments.accumulate"],
    "recover_regressors": ["moelearn.decomposition.recover_regressors"],
    "em": ["moelearn.gating_em.run_em", "moelearn.gating_em.run_gradient_em",
           "moelearn.joint_em.run_joint_em"],
}

# Prints the field count of the ExperimentConfig in the current tree's src/.
_COUNT_FIELDS = """
import dataclasses, sys
sys.path.insert(0, "src")
from moelearn.experiments import ExperimentConfig
print(len(dataclasses.fields(ExperimentConfig)))
"""

# Runs every suite into sys.argv[1] at trials=2, seed=3, n=800, realdata on the
# stand-in CSV sys.argv[2], and prints {file name: text} of every file written.
_SUITE_OUTPUTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, "src")
from moelearn import ExperimentConfig, run_suite
from moelearn.experiments import SUITES
out = Path(sys.argv[1])
config = ExperimentConfig(trials=2, seed=3, n=800, csv_path=sys.argv[2],
                          feature_cols=["c1", "c2", "c3", "c4"], target_col="target")
for name in SUITES:
    run_suite(name, config, out)
print(json.dumps({p.name: p.read_bytes().decode() for p in sorted(out.iterdir())}))
"""

_ONE_THREAD = {name: "1" for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# ROADMAP.md's Tier-1 verify command, run by this interpreter with src/ first
# on PYTHONPATH.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SLOWEST = "--durations=10"


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


def trial_outputs(tree: Path, workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _DUMP_OUTPUTS, workload, str(seed)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **_ONE_THREAD}, timeout=1800)
    return json.loads(done.stdout)


def trial_keys(tree: Path, workload: str, seed: int) -> list:
    done = subprocess.run([sys.executable, "-c", _TRIAL_KEYS, workload, str(seed)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    return json.loads(done.stdout)


def cell_seconds(trial_s: list, keys: list) -> dict:
    """{cell: the sum of its trials' median times over the passes} of one run
    record. ``trial_s`` holds one list per pass whose columns are the trials
    in execution order, ``keys`` (not the key-sorted order of the record's
    ``trials``)."""
    cells = {}
    for key, times in zip(keys, zip(*trial_s), strict=True):
        cell = key.rsplit("/", 1)[0]
        cells[cell] = cells.get(cell, 0.0) + statistics.median(times)
    return cells


def write_standin_csv(path: Path) -> None:
    """The synthetic stand-in for a real-data CSV that tests/test_cli.py's
    realdata tests fit: 1,030 rows of c1..c4 and a two-expert target."""
    import numpy as np

    rng = np.random.default_rng(12)
    n = 1030
    x = rng.standard_normal((n, 4)) * [3.0, 1.0, 0.5, 2.0] + [1.0, 0.0, -1.0, 2.0]
    choose = 1 / (1 + np.exp(-(x - x.mean(0)) @ np.array([0.0, 0.0, 1.0, 0.0])))
    z = rng.random(n) < choose
    y = np.where(z, x @ [1.0, -0.5, 0.0, 0.2], x @ [-0.3, 0.8, 0.1, -0.4])
    y += 0.05 * rng.standard_normal(n)
    with path.open("w") as fh:
        fh.write("c1,c2,c3,c4,target\n")
        for i in range(n):
            fh.write(",".join(f"{v:.8f}" for v in x[i]) + f",{y[i]:.8f}\n")


def suite_outputs(tree: Path, out: Path, standin: Path) -> dict:
    """{file name: text} of every file the suites write in ``tree``."""
    done = subprocess.run([sys.executable, "-c", _SUITE_OUTPUTS, str(out), str(standin)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **_ONE_THREAD}, timeout=3600)
    return json.loads(done.stdout)


def differing_columns(parent: str, change: str) -> list:
    """The header columns of a CSV whose values differ between two texts of
    it, in column order. A row or a column that one side alone has counts as
    differing; columns are named by the longer header (the parent's on a tie)."""
    p_rows, c_rows = (list(csv.reader(io.StringIO(text))) for text in (parent, change))
    header = max(p_rows[:1] + c_rows[:1], key=len, default=[])
    moved = {j for p_row, c_row in itertools.zip_longest(p_rows, c_rows, fillvalue=[])
             for j, (p, c) in enumerate(itertools.zip_longest(p_row, c_row)) if p != c}
    return [header[j] if j < len(header) else str(j) for j in sorted(moved)]


def compare_suite_outputs(outputs: dict) -> dict:
    """Per side, the sha256 of each file; the files whose bytes differ between
    the sides or that one side alone wrote; a unified diff of each; and for
    each CSV that both sides wrote and that differs, its ``differing_columns``
    (so a change that only moves the config hash reads ["config_hash"])."""
    digests = {side: {name: hashlib.sha256(text.encode()).hexdigest()
                      for name, text in files.items()} for side, files in outputs.items()}
    names = sorted(digests["parent"].keys() | digests["change"].keys())
    differ = [name for name in names
              if digests["parent"].get(name) != digests["change"].get(name)]
    diffs = {name: list(difflib.unified_diff(
        outputs["parent"].get(name, "").splitlines(), outputs["change"].get(name, "").splitlines(),
        f"parent/{name}", f"change/{name}", lineterm="")) for name in differ}
    columns = {name: differing_columns(outputs["parent"][name], outputs["change"][name])
               for name in differ if name.endswith(".csv")
               and name in outputs["parent"] and name in outputs["change"]}
    return {**digests, "differ": differ, "diffs": diffs, "columns": columns}


def score_delta(parent, change) -> float:
    """|change - parent|: 0 when both are NaN or the same infinity, inf when
    only one is NaN or a side lacks the field."""
    if parent == change or (parent != parent and change != change):
        return 0.0
    if parent is None or change is None:
        return math.inf
    delta = abs(change - parent)
    return math.inf if math.isnan(delta) else delta


def layer_ratios(parent: dict, change: dict) -> dict:
    """change / parent of each per-layer metric named ``*.s`` on either side;
    None where the parent's is 0 or a side lacks it."""
    return {name: change[name] / parent[name] if parent.get(name) and name in change else None
            for name in sorted(parent.keys() | change.keys()) if name.endswith(".s")}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def leaf_delta(parent, change) -> float:
    """The largest score_delta over the numeric leaves of two JSON values,
    matched by key and index: inf where a key, list item or number is on one
    side only, 0 where neither side holds a number (or for equal strings)."""
    if isinstance(parent, dict) and isinstance(change, dict):
        if parent.keys() != change.keys():
            return math.inf
        return max((leaf_delta(parent[key], change[key]) for key in parent), default=0.0)
    if isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            return math.inf
        return max(map(leaf_delta, parent, change), default=0.0)
    if _is_number(parent) and _is_number(change):
        return score_delta(parent, change)
    return 0.0 if type(parent) is type(change) else math.inf


def _src_env() -> dict:
    """The environment, BLAS on one thread, with a tree's src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return {**os.environ, **_ONE_THREAD, "PYTHONPATH": path}


def tier1(tree: Path) -> dict:
    """One Tier-1 run in ``tree``: wall time, exit code, pytest's summary line
    and its ten slowest tests."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1, SLOWEST], cwd=tree, text=True,
                          env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=3600)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": done.returncode,
            "summary": lines[-1] if lines else "", "slowest": slowest_tests(done.stdout)}


def slowest_tests(output: str) -> dict:
    """{test id: seconds} from the ``--durations`` section of pytest's output,
    a test's setup, call and teardown summed when more than one is listed."""
    header = re.search(r"^=+ slowest \d+ durations =+$", output, re.MULTILINE)
    slowest = {}
    for line in output[header.end():].splitlines() if header else []:
        match = re.fullmatch(r"([\d.]+)s +(?:setup|call|teardown) +(\S+)", line)
        if match:
            slowest[match[2]] = slowest.get(match[2], 0.0) + float(match[1])
    return slowest


def import_layers(log: str) -> dict:
    """Seconds of import time per layer, and the count of scipy modules, from
    one ``-X importtime`` log. The log lists a module after the modules it
    imported, indented two spaces deeper."""
    pending = []   # (level, name, self seconds, children) not yet claimed
    scipy_modules = 0
    for line in log.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        self_us, _, name = line.split("|")
        name = name[1:]
        level = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        scipy_modules += name.split(".")[0] == "scipy"
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop())
        pending.append((level, name, int(self_us.split(":")[1]) / 1e6, children))

    layers = dict.fromkeys(("numpy", "scipy", "moelearn", "other"), 0.0)

    def charge(node, library):
        _, name, self_s, children = node
        top = name.split(".")[0]
        library = library or (top if top in LIBRARY_LAYERS else None)
        layers[library or ("moelearn" if top == "moelearn" else "other")] += self_s
        for child in children:
            charge(child, library)

    for root in pending:
        charge(root, None)
    return {**layers, "total": sum(layers.values()), "scipy_modules": scipy_modules}


def setup_layers(trees: dict) -> dict:
    """Median of IMPORT_PROBES import_layers per tree, the trees alternating."""
    logs = {side: [] for side in trees}
    for _ in range(IMPORT_PROBES):
        for side, tree in trees.items():
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import moelearn"],
                                  cwd=tree, env=_src_env(), check=True, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=120)
            logs[side].append(import_layers(done.stderr))
    return {side: {name: statistics.median(run[name] for run in runs) for name in runs[0]}
            for side, runs in logs.items()}


def first_pass(runs: list) -> dict:
    """Per seed, the first pass's wall time and the median of the later passes."""
    walls = [r["record"]["pass_wall_s"] for r in runs]
    first = [w[0] for w in walls]
    later = [statistics.median(w[1:]) if len(w) > 1 else None for w in walls]
    excess = [f - m for f, m in zip(first, later) if m is not None]
    return {"first_pass_wall_s": first, "median_later_pass_wall_s": later,
            "passes": [len(w) for w in walls],
            "median_first_minus_later_s": statistics.median(excess) if excess else None}


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


def source_lines(tree: Path) -> int:
    """Lines of src/moelearn/*.py, as ``cat src/moelearn/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "moelearn").glob("*.py"))


def config_fields(tree: Path) -> int:
    """``len(dataclasses.fields(ExperimentConfig))``, read in a subprocess
    that imports ``tree``'s own src/."""
    done = subprocess.run([sys.executable, "-c", _COUNT_FIELDS], cwd=tree, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    return int(done.stdout)


def fit_imports(tree: Path, workload: str, seed: int) -> dict:
    """{cell: the modules one trial of it imports beyond ``import moelearn``}
    of ``workload`` under ``seed``, each cell's first trial run in a fresh
    interpreter that imports ``tree``'s own src/ and perfbench/."""
    cells = dict.fromkeys(key.rsplit("/", 1)[0] for key in trial_keys(tree, workload, seed))
    for cell in cells:
        done = subprocess.run([sys.executable, "-c", _FIT_IMPORTS, workload, str(seed), cell],
                              cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **_ONE_THREAD}, timeout=600)
        cells[cell] = json.loads(done.stdout)
    return cells


def memory_layers(tree: Path, workload: str, seed: int) -> dict:
    """{layer of MEMORY_LAYERS: its largest traced peak in MB} over one pass of
    ``workload`` under ``seed``, run in a fresh interpreter that imports
    ``tree``'s own src/ and perfbench/. A layer no trial calls reads 0."""
    done = subprocess.run([sys.executable, "-c", _MEMORY_LAYERS, workload, str(seed),
                           json.dumps(MEMORY_LAYERS)],
                          cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **_ONE_THREAD}, timeout=1800)
    return {layer: peak / 2**20 for layer, peak in json.loads(done.stdout).items()}


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
    counts = [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]

    report = {
        "title": args.title,
        "parent_commit": args.parent_commit,
        "source_sha256": {side: source_sha256(tree) for side, tree in trees.items()},
        "source_lines": {side: source_lines(tree) for side, tree in trees.items()},
        "config_fields": {side: config_fields(tree) for side, tree in trees.items()},
        "fit_imports": {
            "method": f"per workload cell, the modules its first trial at seed "
                      f"{args.seeds[0]} imports beyond `import moelearn`, each run in a "
                      f"fresh interpreter (scripts/bench_pairs.py's fit_imports)",
            **{side: {workload: fit_imports(tree, workload, args.seeds[0])
                      for workload in workloads} for side, tree in trees.items()}},
        "memory_layers": {
            "method": f"per workload, one pass at seed {args.seeds[0]} under tracemalloc in a "
                      f"fresh interpreter; per layer, the largest rise of one call's traced "
                      f"peak above the memory traced at its start, in MB (2**20 bytes); "
                      f"layers: {MEMORY_LAYERS} (scripts/bench_pairs.py's memory_layers)",
            **{side: {workload: memory_layers(tree, workload, args.seeds[0])
                      for workload in workloads} for side, tree in trees.items()}},
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
        "cell_s": {"method": "per untraced run, each cell's trials' median times over "
                             "the passes (run.py's trial_s, its columns in build_trials' "
                             "execution order) summed; values in seed order"},
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
                "first_pass": {side: first_pass(runs[side]) for side in runs},
            }
            keys = [trial_keys(trees["change"], workload, seed) for seed in args.seeds]
            cells = {side: [cell_seconds(r["record"]["trial_s"], k)
                            for r, k in zip(runs[side], keys)] for side in runs}
            report["cell_s"][workload] = {
                cell: compare([c[cell] for c in cells["parent"]],
                              [c[cell] for c in cells["change"]], "lower")
                for cell in cells["change"][0]}

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
            layers = {side: traced[workload][side]["per_layer"] for side in trees}
            traced[workload]["counts_differ"] = [
                name for name in counts if layers["parent"].get(name) != layers["change"].get(name)]
            traced[workload]["layer_ratios"] = layer_ratios(layers["parent"], layers["change"])
            print(f"{workload} traced seed {trace_seed}: counts differ "
                  f"{traced[workload]['counts_differ']}", flush=True)
        report["trace_seed"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {trace_seed} "
                       f"--trace 1 (through sweep.py)",
            "seed": trace_seed, "workloads": traced}

        standin = work / "realdata_standin.csv"
        write_standin_csv(standin)
        report["suite_digests"] = {
            "method": "every suite run once per tree by run_suite at ExperimentConfig("
                      "trials=2, seed=3, n=800), realdata on a stand-in CSV at one path "
                      "for both trees, BLAS on one thread; sha256 of each file's bytes",
            **compare_suite_outputs({side: suite_outputs(tree, work / f"suites-{side}", standin)
                                     for side, tree in trees.items()})}
        print(f"suite files differ: {report['suite_digests']['differ']}", flush=True)

    differ, largest, checked, total = {}, {}, {}, 0
    for workload in workloads:
        differ[workload], largest[workload] = 0, 0.0
        max_delta, mismatched = dict.fromkeys(SCORES, 0.0), dict.fromkeys(COUNTS, 0)
        for seed in args.seeds:
            outputs = {side: trial_outputs(tree, workload, seed) for side, tree in trees.items()}
            total += len(outputs["change"])
            for key, change in outputs["change"].items():
                parent = outputs["parent"].get(key, {"sha256": None, "checked": {},
                                                     "output": None})
                differ[workload] += parent["sha256"] != change["sha256"]
                largest[workload] = max(largest[workload],
                                        leaf_delta(parent["output"], change["output"]))
                for name in SCORES:
                    max_delta[name] = max(max_delta[name], score_delta(
                        parent["checked"].get(name), change["checked"].get(name)))
                for name in COUNTS:
                    mismatched[name] += parent["checked"].get(name) != change["checked"].get(name)
        checked[workload] = {"max_abs_delta": max_delta, "mismatched": mismatched}
        print(f"{workload} outputs: {differ[workload]} differ, largest leaf delta "
              f"{largest[workload]}, {checked[workload]}", flush=True)
    report["bit_identical_outputs"] = {
        "method": "every run_trial output of every workload and seed, BLAS on one "
                  "thread, compared between the two trees as canonical JSON "
                  "(json.dumps(sort_keys=True), floats at full repr precision); "
                  "checked_fields: over perfbench/reference.py's checked_fields, the "
                  "largest |change - parent| of each score and the count of trials "
                  "whose iterations or converged differ; largest_leaf_delta: the largest "
                  "|change - parent| over every numeric leaf of every output, curves "
                  "included (inf where a leaf is on one side only)",
        "trials": total, "differ": differ, "largest_leaf_delta": largest,
        "checked_fields": checked}

    report["setup_layers"] = {
        "command": "PYTHONPATH=src python -X importtime -c 'import moelearn'",
        "method": f"median of {IMPORT_PROBES} runs per tree, the trees alternating; a "
                  f"module's self time counts to numpy or scipy when it, or the outermost "
                  f"module that imported it, belongs to that package, else to moelearn "
                  f"for its own modules, else to other; total is their sum; "
                  f"scipy_modules counts the scipy modules the log lists",
        **setup_layers(trees)}
    print(f"setup layers: {report['setup_layers']}", flush=True)

    report["tier1"] = {"command": "PYTHONPATH=src python " + " ".join([*TIER1, SLOWEST]),
                       "threads": _ONE_THREAD}
    for side, tree in trees.items():
        report["tier1"][side] = tier1(tree)
        print(f"tier-1 {side}: {report['tier1'][side]['wall_s']:.1f} s, "
              f"{report['tier1'][side]['summary']}", flush=True)

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
