"""scripts/bench_pairs.py's split of import time into layers, its count of
config fields, its comparison of suite outputs, of run_trial outputs and of
traced layer times."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

from moelearn import ExperimentConfig

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _log(entries):
    """An ``-X importtime`` log: each module after the modules it imported."""
    lines = ["import time: self [us] | cumulative | imported package"]
    lines += [f"import time: {self_us:9d} | {0:10d} | {'  ' * level}{name}"
              for level, self_us, name in entries]
    return "\n".join(lines) + "\n"


def test_import_layers_charge_each_module_to_its_outermost_library(bench_pairs):
    log = _log([
        (1, 100, "_io"), (0, 200, "encodings"),
        (3, 1000, "numpy._core"), (3, 500, "unittest"), (2, 300, "numpy"), (2, 30, "json"),
        (1, 2000, "moelearn.activations"),
        (4, 400, "numpy.linalg"), (4, 600, "inspect"), (3, 700, "scipy.optimize"),
        (2, 50, "scipy"), (1, 40, "moelearn.gating_mom"),
        (0, 10, "moelearn"),
    ])
    layers = bench_pairs.import_layers(log)
    assert layers["numpy"] == pytest.approx(1800e-6)    # numpy and what it imported
    assert layers["scipy"] == pytest.approx(1750e-6)    # with numpy.linalg and inspect
    assert layers["moelearn"] == pytest.approx(2050e-6)
    assert layers["other"] == pytest.approx(330e-6)     # start-up and moelearn's json
    assert layers["total"] == pytest.approx(5930e-6)
    assert layers["scipy_modules"] == 2


def test_config_fields_counts_the_tree_own_experiment_config(bench_pairs, tmp_path):
    package = tmp_path / "src" / "moelearn"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "experiments.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass ExperimentConfig:\n"
        "    algo: str = 'spectral+em'\n    k: int = 2\n    d: int = 10\n")
    assert bench_pairs.config_fields(tmp_path) == 3
    assert (bench_pairs.config_fields(BENCH_PAIRS.parents[1])
            == len(dataclasses.fields(ExperimentConfig)))


def test_compare_suite_outputs_lists_changed_and_one_sided_files(bench_pairs):
    same = "a,b\r\n1,2\r\n"
    outputs = {"parent": {"same.csv": same, "moved.csv": "h\r\nx\r\n", "gone.csv": "g\r\n"},
               "change": {"same.csv": same, "moved.csv": "h\r\ny\r\n", "new.csv": "n\r\n"}}
    result = bench_pairs.compare_suite_outputs(outputs)
    assert result["differ"] == ["gone.csv", "moved.csv", "new.csv"]
    assert result["parent"]["same.csv"] == result["change"]["same.csv"]
    assert result["parent"]["moved.csv"] != result["change"]["moved.csv"]
    assert "new.csv" not in result["parent"] and "gone.csv" not in result["change"]
    assert result["diffs"]["moved.csv"][2:] == ["@@ -1,2 +1,2 @@", " h", "-x", "+y"]
    assert set(result["diffs"]) == set(result["differ"])


def test_compare_suite_outputs_names_the_columns_that_differ(bench_pairs):
    rows = lambda *lines: "".join(line + "\r\n" for line in lines)
    parent = {"t.csv": rows("metric,mean,config_hash", "fit,0.5,aaaa", "err,0.25,aaaa"),
              "u.csv": rows("a,b,c", "1,2,3"), "m.json": "{}\n"}
    change = {"t.csv": rows("metric,mean,config_hash", "fit,0.5,bbbb", "err,0.25,bbbb"),
              "u.csv": rows("a,b,c", "1,\"x,y\",3", "4,5,6"), "m.json": "[]\n",
              "new.csv": rows("z", "1")}
    result = bench_pairs.compare_suite_outputs({"parent": parent, "change": change})
    assert result["differ"] == ["m.json", "new.csv", "t.csv", "u.csv"]
    assert result["columns"] == {"t.csv": ["config_hash"], "u.csv": ["a", "b", "c"]}
    assert bench_pairs.differing_columns(rows("a,b", "1,2"), rows("a,b,c", "1,3,4")) == ["b", "c"]
    assert bench_pairs.differing_columns(rows("a"), rows("a")) == []


def test_slowest_tests_reads_the_durations_section(bench_pairs):
    output = "\n".join([
        "..F.                                                                     [100%]",
        "0.50s call     tests/test_x.py::not_a_duration_line",
        "============================= slowest 10 durations =============================",
        "6.41s call     tests/test_experiments.py::test_varying_n_and_nonlinear_suites_small",
        "1.20s setup    tests/test_cli.py::test_fit[dist-value8]",
        "0.30s call     tests/test_cli.py::test_fit[dist-value8]",
        "0.01s teardown tests/test_model.py::test_softmax",
        "",
        "(1 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "1 failed, 3 passed in 9.81s",
    ])
    assert bench_pairs.slowest_tests(output) == {
        "tests/test_experiments.py::test_varying_n_and_nonlinear_suites_small": 6.41,
        "tests/test_cli.py::test_fit[dist-value8]": pytest.approx(1.5),
        "tests/test_model.py::test_softmax": 0.01,
    }
    assert bench_pairs.slowest_tests("4 passed in 0.10s") == {}


def test_leaf_delta_sizes_a_change_in_any_numeric_leaf(bench_pairs):
    out = {"trial": 1, "param_error": 0.25, "converged": True, "flags": ["weak"],
           "error_curve": [0.5, 0.3, float("nan")], "gating_fit_curve": [],
           "step_norms": [1.0, 0.1]}
    assert bench_pairs.leaf_delta(out, json.loads(json.dumps(out))) == 0.0
    assert bench_pairs.leaf_delta(out, {**out, "error_curve": [0.5, 0.3 + 1e-16, float("nan")],
                                        "step_norms": [1.0, 0.1 + 2e-12]}) == pytest.approx(2e-12)
    assert bench_pairs.leaf_delta(out, {**out, "flags": ["other"], "converged": False}) == 0.0
    assert bench_pairs.leaf_delta(out, {**out, "step_norms": [1.0]}) == math.inf
    assert bench_pairs.leaf_delta(out, {**out, "error_curve": [0.5, 0.3, 0.1]}) == math.inf
    assert bench_pairs.leaf_delta(out, {**out, "param_error": None}) == math.inf
    assert bench_pairs.leaf_delta(None, out) == math.inf
    extra = {**out, "iterations": 3}
    assert bench_pairs.leaf_delta(out, extra) == bench_pairs.leaf_delta(extra, out) == math.inf


def test_layer_ratios_divide_each_traced_time_by_the_parent_s(bench_pairs):
    parent = {"gating_em.m_step.s": 0.5, "moments.accumulate.s": 0.2,
              "gating_mom.mom_gating.s": 0.0, "gating_em.m_step.calls": 115,
              "experiments.run_trial.self_s": 0.01, "old.layer.s": 0.3}
    change = {"gating_em.m_step.s": 0.4, "moments.accumulate.s": 0.2,
              "gating_mom.mom_gating.s": 0.0, "gating_em.m_step.calls": 115,
              "experiments.run_trial.self_s": 0.02, "new.layer.s": 0.1}
    assert bench_pairs.layer_ratios(parent, change) == {
        "gating_em.m_step.s": pytest.approx(0.8), "gating_mom.mom_gating.s": None,
        "moments.accumulate.s": 1.0, "new.layer.s": None, "old.layer.s": None}


def test_cell_seconds_reads_trial_columns_in_execution_order(bench_pairs):
    # in execution order; sorted, "z/0" would come last
    keys = ["z/0", "gmm/0", "gmm/1", "relu/0"]
    trial_s = [[1.0, 2.0, 4.0, 8.0], [3.0, 2.0, 6.0, 8.0], [2.0, 9.0, 5.0, 0.0]]
    assert bench_pairs.cell_seconds(trial_s, keys) == {"z": 2.0, "gmm": 7.0, "relu": 8.0}
    with pytest.raises(ValueError):
        bench_pairs.cell_seconds(trial_s, keys[:3])


def test_trial_keys_follow_the_workload_cells(bench_pairs):
    keys = bench_pairs.trial_keys(BENCH_PAIRS.parents[1], "small_k2", 0)
    assert keys[:2] == ["gaussian:spectral+em/0", "gaussian:spectral+em/1"]
    assert keys[8] == "gmm0.3:spectral+em/0" and len(keys) == 88
    assert keys != sorted(keys)


def test_fit_imports_lists_what_each_cell_first_trial_imports(bench_pairs, tmp_path):
    package, bench = tmp_path / "src" / "moelearn", tmp_path / "perfbench"
    package.mkdir(parents=True)
    bench.mkdir()
    (package / "__init__.py").write_text("import json\n")
    (package / "experiments.py").write_text(
        "def run_trial(config, index):\n"
        "    if config == 'slow' and index == 0:\n"
        "        import side_path\n")
    (tmp_path / "src" / "side_path.py").write_text("import moelearn.side_helper\n")
    (package / "side_helper.py").write_text("")
    (bench / "workloads.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Trial:\n"
        "    cell: str\n    config: str\n    index: int\n\n"
        "    @property\n    def key(self):\n        return f'{self.cell}/{self.index}'\n\n\n"
        "def build_trials(workload, seed):\n"
        "    return [Trial(c, c, i) for c in ('fast', 'slow') for i in range(2)]\n")
    imports = bench_pairs.fit_imports(tmp_path, "w", 0)
    assert list(imports.items()) == [("fast", []),
                                     ("slow", ["moelearn.side_helper", "side_path"])]


def test_fit_imports_of_this_tree_hold_no_numpy_side_packages(bench_pairs):
    imports = bench_pairs.fit_imports(BENCH_PAIRS.parents[1], "wide_moments", 0)
    assert list(imports) == ["d40:gaussian"]
    assert not [m for m in imports["d40:gaussian"]
                if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "polynomial"])]


def test_memory_layers_take_each_stage_peak_above_what_it_started_with(bench_pairs, tmp_path):
    package, bench = tmp_path / "src" / "moelearn", tmp_path / "perfbench"
    package.mkdir(parents=True)
    bench.mkdir()
    stages = {"model": ["sample_dataset"], "moments": ["accumulate"],
              "decomposition": ["recover_regressors"],
              "gating_em": ["run_em", "run_gradient_em"], "joint_em": ["run_joint_em"]}
    (package / "__init__.py").write_text("")
    for module, names in stages.items():
        (package / f"{module}.py").write_text("".join(
            f"def {name}(mb):\n    return len(bytearray(mb * 2**20))\n\n\n" for name in names))
    # the second trial holds 8 MB through its stages, which no stage's peak
    # counts, and two of its stages take more than the first trial's
    (package / "experiments.py").write_text(
        "from .model import sample_dataset\n"
        "from . import decomposition, gating_em, moments\n\n\n"
        "def run_trial(config, index):\n"
        "    held = bytearray(8 * 2**20 * index)\n"
        "    sample_dataset(1)\n"
        "    moments.accumulate(2 + index)\n"
        "    decomposition.recover_regressors(3)\n"
        "    gating_em.run_gradient_em(1 + 3 * index)\n"
        "    return len(held)\n")
    (bench / "workloads.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass\nclass Trial:\n"
        "    config: str\n    index: int\n\n\n"
        "def build_trials(workload, seed):\n"
        "    return [Trial('c', i) for i in range(2)]\n")
    layers = bench_pairs.memory_layers(tmp_path, "w", 0)
    assert list(layers) == list(bench_pairs.MEMORY_LAYERS)
    want = {"sampling": 1, "accumulate": 3, "recover_regressors": 3, "em": 4}
    for layer, mb in want.items():
        assert mb <= layers[layer] < mb + 0.05
