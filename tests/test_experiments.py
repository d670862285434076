import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moelearn
from moelearn import ExperimentConfig, draw_instance, experiments, run_suite
from moelearn.errors import ConfigError, NumericalError
from moelearn.experiments import run_trial, trial_seeds
from moelearn.metrics import FitReport


def test_draw_instance_contracts():
    cfg = ExperimentConfig(k=3, d=10, sigma=0.2, orthogonal=True, seed=4)
    model, dist = draw_instance(cfg, 4)
    assert np.allclose(np.linalg.norm(model.a, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(model.w @ model.a.T)) <= 1e-10
    assert np.allclose(np.linalg.norm(model.w, axis=1), 1.0, atol=1e-12)
    assert dist.kind == "gaussian"

    gmm_cfg = ExperimentConfig(k=2, d=6, dist={"kind": "gmm", "p": 0.3}, seed=1)
    _, gdist = draw_instance(gmm_cfg, 1)
    assert gdist.kind == "gmm"
    assert np.allclose(gdist.weights, [0.3, 0.7])
    assert np.allclose(np.linalg.norm(gdist.means, axis=1), 1.0)


def test_draw_instance_warns_outside_regime():
    cfg = ExperimentConfig(k=4, d=6, orthogonal=True, seed=0)  # 2k-1 >= d
    with pytest.warns(RuntimeWarning, match="regime"):
        draw_instance(cfg, 0)


def test_run_trial_returns_metrics_and_curves():
    cfg = ExperimentConfig(k=2, d=6, sigma=0.1, n=800, trials=2, seed=5)
    out = run_trial(cfg, 0)
    assert 0 <= out["regressor_fit"] <= 1
    assert out["error_curve"]
    assert len(out["gating_fit_curve"]) == len(out["error_curve"])
    out1 = run_trial(cfg, 1)
    assert out1["regressor_fit"] != out["regressor_fit"]   # independent draws


@pytest.mark.parametrize("activation", ["linear", "sigmoid"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("algo", ["spectral+em", "spectral+gradient-em", "joint-em"])
def test_curves_end_at_the_final_scores(algo, k, activation):
    """The last iterate is the fit, and the curves and the final scores come
    from one scorer, so each curve ends at its score to the bit."""
    cfg = ExperimentConfig(algo=algo, k=k, d=6, sigma=0.1, activation=activation, n=800,
                           seed=5)
    out = run_trial(cfg, 0)
    assert out["error_curve"][-1] == out["param_error"]
    if k == 2:
        assert out["gating_fit_curve"][-1] == out["gating_fit"]


# Modules only the side paths load: k > 8 matching (scipy.optimize), the ReLU
# quadrature oracle of check_conditions (scipy.integrate, which loads
# scipy.special) and threaded suites. Joint EM's sphere solve and the
# method-of-moments gating use no scipy.
_SIDE_PATH_MODULES = ("scipy.optimize", "scipy.special", "scipy.integrate",
                      "concurrent.futures.process", "numpy.ma", "numpy.polynomial")

_IMPORT_PROBE = """
import sys
import moelearn, moelearn.cli
from moelearn.experiments import ExperimentConfig, run_trial
run_trial(ExperimentConfig(algo={algo!r}, k=2, d=4, n=400, trials=1), 0)
print("\\n".join(sorted(sys.modules)))
"""


def _side_path_modules_loaded(algo):
    """The side-path modules loaded by importing moelearn and its CLI and
    running one linear k = 2 trial of ``algo``, in a fresh interpreter."""
    src = str(Path(moelearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(algo=algo)],
                          check=True, text=True,
                          stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    loaded = done.stdout.split()
    assert "moelearn.cli" in loaded
    # exact package names: "numpy.ma" is a prefix of numpy.matrixlib, which
    # import numpy always loads
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in _SIDE_PATH_MODULES)]


def test_spectral_em_fit_loads_no_side_path_modules():
    """Importing moelearn and its CLI and running one spectral+em trial, in a
    fresh interpreter, loads none of the modules of the side paths."""
    assert _side_path_modules_loaded("spectral+em") == []


@pytest.mark.parametrize("algo", ["joint-em", "spectral+mom", "spectral+gradient-em"])
def test_joint_em_and_mom_fits_load_no_side_path_modules(algo):
    """Joint EM's Newton solve of the secular equation, the method-of-moments
    normal CDF, the quadrature nodes and the moment cap's median are the
    package's own: a linear trial loads neither scipy.optimize nor
    scipy.special, nor numpy.ma or numpy.polynomial, nor any other side-path
    module."""
    assert _side_path_modules_loaded(algo) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=20))
def test_trial_seeds_are_the_spawned_children(seed, trial, extra):
    """Each trial's seeds equal children 3*trial..3*trial+2 of a spawn over
    all trials, however many trials the cell has."""
    spawned = np.random.SeedSequence(seed).spawn(3 * (trial + 1) + extra)
    for j, child in enumerate(trial_seeds(seed, trial)):
        assert np.array_equal(child.generate_state(8),
                              spawned[3 * trial + j].generate_state(8))


def test_config_validation_and_json(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(k=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(activation="swish")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 3, "d": 7, "n": 500, "sigma": 0.2}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.k == 3 and cfg.d == 7
    assert cfg.trials == 10          # defaults explicit after load
    assert cfg.hash() == ExperimentConfig(k=3, d=7, n=500, sigma=0.2).hash()


def test_config_hash_pinned():
    """Suite CSVs carry this hash in their config_hash column."""
    assert ExperimentConfig().hash() == "aa9c49f21ab38c6b"
    assert ExperimentConfig(k=3, d=7, n=500, sigma=0.2).hash() == "3495fe1f46a8d660"


# a valid value other than the default for every setting
_OTHER_SETTINGS = {
    "algo": "joint-em", "experiment": "table1", "k": 3, "d": 11, "sigma": 0.2,
    "activation": "relu", "radius": 2.0, "orthogonal": False,
    "dist": {"kind": "gmm", "p": 0.3}, "n": 2001, "trials": 11, "seed": 1, "threads": 2,
    "out": "elsewhere", "csv_path": "data.csv", "feature_cols": ["c1"],
    "target_col": "target", "split": 0.5}


def test_config_hash_covers_every_setting_but_out_and_threads():
    """The hash, and so a fit report's, moves with every setting that can
    change a result, and not with where or how fast the result is written."""
    base = ExperimentConfig()
    assert set(_OTHER_SETTINGS) == set(ExperimentConfig.__dataclass_fields__)
    unmoved = {name for name, value in _OTHER_SETTINGS.items()
               if replace(base, **{name: value}).hash() == base.hash()}
    assert unmoved == {"out", "threads"}
    other = replace(base, out="elsewhere", threads=2)
    assert (FitReport(config=other.to_dict()).to_dict()["config_hash"]
            == FitReport(config=base.to_dict()).to_dict()["config_hash"] == base.hash())


def test_small_suites_run_clean(tmp_path):
    base = ExperimentConfig(trials=2, seed=11, n=800)
    for suite, outputs in [
        ("fig_nonorth", ["fig_nonorth.csv"]),
        ("table1", ["table1.csv", "table1_aggregate.csv"]),
    ]:
        manifest = run_suite(suite, base, tmp_path / suite)
        assert not manifest["failures"], manifest
        assert manifest["outputs"] == outputs
        for name in outputs:
            assert (tmp_path / suite / name).exists()
    t1 = (tmp_path / "table1" / "table1.csv").read_text().splitlines()
    assert t1[0].startswith("metric,p=0.1,p=0.3,p=0.5,p=0.7,p=0.9")
    assert len(t1) == 3              # header + two metric rows
    agg = (tmp_path / "table1" / "table1_aggregate.csv").read_text().splitlines()
    assert agg[0] == "config_hash,metric,mean,std,trials"


def test_varying_n_and_nonlinear_suites_small(tmp_path):
    # reduced trial counts; these exercise the sweep plumbing end to end
    base = ExperimentConfig(trials=2, seed=13)
    man1 = run_suite("varying_n", base, tmp_path / "vn")
    assert not man1["failures"]
    rows = (tmp_path / "vn" / "varying_n.csv").read_text().splitlines()
    assert rows[0] == "n,algo,median,mean,std,trials,config_hash"
    assert len(rows) == 1 + 3 * 2    # three sample sizes, two algorithms

    man2 = run_suite("nonlinear", base, tmp_path / "nl")
    assert not man2["failures"]
    rows = (tmp_path / "nl" / "nonlinear.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2    # two activations, two algorithms


def test_fig_k3_suite_small(tmp_path):
    base = ExperimentConfig(trials=2, seed=17)
    manifest = run_suite("fig_k3", base, tmp_path / "fig")
    assert not manifest["failures"]
    rows = (tmp_path / "fig" / "fig_k3.csv").read_text().splitlines()
    assert rows[0] == "algo,trial,iter,param_error,config_hash"
    algos = {line.split(",")[0] for line in rows[1:]}
    assert algos == {"spectral+em", "joint-em"}


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_suite("bogus", ExperimentConfig(), tmp_path)


# The cells _stub_trial fails: one per suite.
_FAILING = {
    "table1": lambda cfg: cfg.dist.get("p") == 0.5,
    "table2": lambda cfg: not cfg.orthogonal,
    "fig_k3": lambda cfg: cfg.algo == "joint-em",
    "fig_nonorth": lambda cfg: True,
    "varying_n": lambda cfg: cfg.n == 5000 and cfg.algo == "joint-em",
    "nonlinear": lambda cfg: cfg.activation == "relu" and cfg.algo == "spectral+em",
}


def _stub_trial(config, trial):
    """run_trial's keys, from numbers that tell the cells apart, without a fit."""
    if _FAILING[config.experiment](config):
        raise NumericalError(f"stub failure in {config.experiment}")
    x = (trial / 4 + config.k / 8 + config.n / 3e4 + (config.algo == "joint-em") / 16
         + config.dist.get("p", 0) / 10 + (config.activation == "relu") / 32
         + config.orthogonal / 64)
    return {"trial": trial, "regressor_fit": 1 - x / 2, "gating_fit": x / 3,
            "param_error": x, "error_curve": [x, x / 2],
            "gating_fit_curve": [1 - x, 1 - x / 5]}


def _crlf(*lines):
    return "".join(line + "\r\n" for line in lines)


_STUB_OUTPUTS = {
    "table1": {
        "table1.csv": (
            "metric,p=0.1,p=0.3,p=0.5,p=0.7,p=0.9,config_hash",
            "regressor_fit,0.794 +/- 0.062,0.784 +/- 0.062,failed,0.764 +/- 0.062,"
            "0.754 +/- 0.062,ae9f8c247ce2895c",
            "gating_fit,0.137 +/- 0.042,0.144 +/- 0.042,failed,0.157 +/- 0.042,"
            "0.164 +/- 0.042,ae9f8c247ce2895c",
        ),
        "table1_aggregate.csv": (
            "config_hash,metric,mean,std,trials",
            "e1f32f8902ed487e,p=0.1:regressor_fit,0.7941666667,0.0625,2",
            "e1f32f8902ed487e,p=0.1:gating_fit,0.1372222222,0.04166666667,2",
            "edc4439b2a487eab,p=0.3:regressor_fit,0.7841666667,0.0625,2",
            "edc4439b2a487eab,p=0.3:gating_fit,0.1438888889,0.04166666667,2",
            "d93f2d198a31c848,p=0.7:regressor_fit,0.7641666667,0.0625,2",
            "d93f2d198a31c848,p=0.7:gating_fit,0.1572222222,0.04166666667,2",
            "ea9beb48e7706128,p=0.9:regressor_fit,0.7541666667,0.0625,2",
            "ea9beb48e7706128,p=0.9:gating_fit,0.1638888889,0.04166666667,2",
        ),
    },
    "table2": {
        "table2.csv": (
            "setting,metric,mean,std,trials,config_hash",
            "orthogonal,regressor_fit,0.7913541667,0.0625,2,3525ed068af94cd9",
            "orthogonal,gating_fit,0.1390972222,0.04166666667,2,3525ed068af94cd9",
        ),
        "table2_aggregate.csv": (
            "config_hash,metric,mean,std,trials",
            "3525ed068af94cd9,orthogonal:regressor_fit,0.7913541667,0.0625,2",
            "3525ed068af94cd9,orthogonal:gating_fit,0.1390972222,0.04166666667,2",
        ),
    },
    "fig_k3": {
        "fig_k3.csv": (
            "algo,trial,iter,param_error,config_hash",
            "spectral+em,0,1,0.6416666667,740ac2a888bdd1ca",
            "spectral+em,0,2,0.3208333333,740ac2a888bdd1ca",
            "spectral+em,1,1,0.8916666667,740ac2a888bdd1ca",
            "spectral+em,1,2,0.4458333333,740ac2a888bdd1ca",
        ),
    },
    "fig_nonorth": {
        "fig_nonorth.csv": (
            "trial,iter,gating_fit,config_hash",
        ),
    },
    "varying_n": {
        "varying_n.csv": (
            "n,algo,median,mean,std,trials,config_hash",
            "1000,spectral+em,0.5333333333,0.5333333333,0.125,2,61f2f59b1a50d09e",
            "1000,joint-em,0.5958333333,0.5958333333,0.125,2,59e0270be54eb130",
            "5000,spectral+em,0.6666666667,0.6666666667,0.125,2,6f77525a1b0dd1a2",
            "10000,spectral+em,0.8333333333,0.8333333333,0.125,2,279538938f4c3f5a",
            "10000,joint-em,0.8958333333,0.8958333333,0.125,2,e4b93c1c5038078c",
        ),
    },
    "nonlinear": {
        "nonlinear.csv": (
            "activation,algo,median_param_error,mean_regressor_fit,trials,config_hash",
            "sigmoid,spectral+em,0.8333333333,0.5833333333,2,03a178d525097021",
            "sigmoid,joint-em,0.8958333333,0.5520833333,2,bf6545c08e403e0a",
            "relu,joint-em,0.9270833333,0.5364583333,2,0728a5855222bd48",
        ),
    },
}
_STUB_FAILURES = {
    "table1": "p=0.5: stub failure in table1",
    "table2": "non-orthogonal: stub failure in table2",
    "fig_k3": "joint-em: stub failure in fig_k3",
    "fig_nonorth": "fig_nonorth: stub failure in fig_nonorth",
    "varying_n": "n=5000:joint-em: stub failure in varying_n",
    "nonlinear": "relu:spectral+em: stub failure in nonlinear",
}


def test_suite_layouts_with_a_failed_cell(tmp_path, monkeypatch):
    """Each suite's exact CSV text when one of its cells fails: table1 writes
    `failed`, the other suites leave the cell's rows out, and the manifest
    lists the cell as "<label>: <message>"."""
    monkeypatch.setattr(experiments, "run_trial", _stub_trial)
    base = ExperimentConfig(trials=2, seed=3, n=800)
    for suite, outputs in _STUB_OUTPUTS.items():
        manifest = run_suite(suite, base, tmp_path / suite)
        assert manifest == {"suite": suite, "config_hash": base.hash(),
                            "outputs": list(outputs), "failures": [_STUB_FAILURES[suite]]}
        for name, lines in outputs.items():
            assert (tmp_path / suite / name).read_bytes().decode() == _crlf(*lines), name

    monkeypatch.setitem(_FAILING, "fig_nonorth", lambda cfg: False)
    assert run_suite("fig_nonorth", base, tmp_path / "clean")["failures"] == []
    assert (tmp_path / "clean" / "fig_nonorth.csv").read_bytes().decode() == _crlf(
        "trial,iter,gating_fit,config_hash",
        "0,1,0.6833333333,ff4e5352dd20ec6d", "0,2,0.9366666667,ff4e5352dd20ec6d",
        "1,1,0.4333333333,ff4e5352dd20ec6d", "1,2,0.8866666667,ff4e5352dd20ec6d")
