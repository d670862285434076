import contextlib
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelearn import ExperimentConfig, MoeModel, run_suite
from moelearn import cli
from moelearn.cli import main
from moelearn.errors import ConfigError, DataError, NumericalError
from moelearn.model import SIGMA_MAX


def _write_config(path, **overrides):
    payload = {"experiment": "clitest", "k": 2, "d": 6, "sigma": 0.1,
               "n": 800, "seed": 5, "trials": 2}
    payload.update(overrides)
    Path(path).write_text(json.dumps(payload))
    return path


def test_generate_is_deterministic_and_orthogonal(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "a"))
    assert main(["generate", "--config", str(cfg)]) == 0
    cfg2 = _write_config(tmp_path / "cfg2.json", out=str(tmp_path / "b"))
    assert main(["generate", "--config", str(cfg2)]) == 0
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert a == b
    model = MoeModel.from_json(tmp_path / "a" / "model.json")
    assert np.max(np.abs(model.w @ model.a.T)) <= 1e-10   # Gram-Schmidt contract
    assert np.allclose(np.linalg.norm(model.a, axis=1), 1.0, atol=1e-12)


def test_generate_different_seed_differs(tmp_path):
    c1 = _write_config(tmp_path / "c1.json", out=str(tmp_path / "a"))
    c2 = _write_config(tmp_path / "c2.json", out=str(tmp_path / "b"), seed=6)
    main(["generate", "--config", str(c1)])
    main(["generate", "--config", str(c2)])
    assert ((tmp_path / "a" / "dataset.csv").read_bytes()
            != (tmp_path / "b" / "dataset.csv").read_bytes())


def test_fit_end_to_end_with_truth(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=1500)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg),
               "--data", str(tmp_path / "run" / "dataset.csv"),
               "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "fit_report.json").read_text())
    assert report["schema"] == 1
    assert report["regressor_fit"] > 0.8
    assert "config_hash" in report
    trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,step_norm,q_value,loglik"


def test_fit_joint_em_trace_has_loglik(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=1000)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg), "--algo", "joint-em",
               "--data", str(tmp_path / "run" / "dataset.csv"),
               "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 0
    trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,step_norm,q_value,loglik"


def test_fit_without_truth_model(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=900)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg),
               "--data", str(tmp_path / "run" / "dataset.csv")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "fit_report.json").read_text())
    assert report["regressor_fit"] is None or report["regressor_fit"] != report["regressor_fit"]
    assert report["decomposition"]["regressors"]
    assert (tmp_path / "run" / "regressors.csv").exists()


@pytest.mark.parametrize("k, algo", [(3, "spectral+em"), (2, "spectral+mom")])
def test_gating_csv_is_the_fit_k_minus_one_rows(tmp_path, monkeypatch, k, algo):
    """gating.csv holds PipelineResult.w as it is, k - 1 rows with the k-th
    implicitly zero, the layout of model.json's w."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), k=k, n=900)
    assert main(["generate", "--config", str(cfg)]) == 0
    results = []
    fit = cli.fit_pipeline
    monkeypatch.setattr(cli, "fit_pipeline",
                        lambda *args, **kwargs: results.append(fit(*args, **kwargs))
                        or results[-1])
    assert main(["fit", "--config", str(cfg), "--algo", algo,
                 "--data", str(tmp_path / "run" / "dataset.csv")]) == 0
    gating = np.loadtxt(tmp_path / "run" / "gating.csv", delimiter=",", ndmin=2)
    assert gating.shape == (k - 1, 6)
    assert np.array_equal(gating, results[0].w)
    assert gating.shape == MoeModel.from_json(tmp_path / "run" / "model.json").w.shape


def test_fit_without_truth_reports_em_trace(tmp_path):
    """Only the metrics need the generating model; the report's EM trace
    rows match trace.csv and the scored report's rows."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=900)
    main(["generate", "--config", str(cfg)])
    data = str(tmp_path / "run" / "dataset.csv")
    assert main(["fit", "--config", str(cfg), "--data", data,
                 "--out", str(tmp_path / "scored"),
                 "--model", str(tmp_path / "run" / "model.json")]) == 0
    assert main(["fit", "--config", str(cfg), "--data", data]) == 0
    rows = json.loads((tmp_path / "run" / "fit_report.json").read_text())["traces"]["iterations"]
    csv_rows = (tmp_path / "run" / "trace.csv").read_text().splitlines()[1:]
    assert rows and len(rows) == len(csv_rows)
    assert [r["iter"] for r in rows] == [int(line.split(",")[0]) for line in csv_rows]
    scored = json.loads((tmp_path / "scored" / "fit_report.json").read_text())
    assert rows == scored["traces"]["iterations"]


def test_exit_codes(tmp_path):
    # usage: unknown flag combinations
    assert main(["fit"]) == 1
    # data error: missing dataset
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "x"))
    assert main(["fit", "--config", str(cfg), "--data", str(tmp_path / "no.csv")]) == 2
    # usage: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 0}))
    assert main(["generate", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"bogus_key": 1}))
    assert main(["generate", "--config", str(unknown)]) == 1
    # numerical: mom estimator with k != 2 is rejected as configuration
    cfg3 = _write_config(tmp_path / "cfg3.json", out=str(tmp_path / "y"), k=3, d=8)
    main(["generate", "--config", str(cfg3)])
    rc = main(["fit", "--config", str(cfg3), "--algo", "spectral+mom",
               "--data", str(tmp_path / "y" / "dataset.csv")])
    assert rc == 1


def test_nan_feature_is_data_error_not_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0
    csv = tmp_path / "run" / "dataset.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg), "--data", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: 1 of 800 rows have a non-finite feature (NaN or inf)\n"


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated k = 2, d = 6 set: (config path, its output directory)."""
    root = tmp_path_factory.mktemp("generated")
    cfg = _write_config(root / "cfg.json", out=str(root / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0
    return cfg, root / "run"


def _exit_and_stderr(capsys, argv):
    """(exit code, stderr) of one ``moe`` call."""
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().err


def test_fit_on_a_repeated_column_name_is_data_error(generated, tmp_path, capsys):
    """Both copies of a repeated header name would resolve to its first
    column, so the second would be fitted twice and the other never read."""
    _, run = generated
    lines = (run / "dataset.csv").read_text().splitlines()
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join([lines[0].replace("x1", "x0"), *lines[1:]]) + "\n")
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "out"))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--data", str(path)])
    assert rc == 2
    assert err == f"data error: column 'x0' appears 2 times in the header of {path}\n"


@pytest.mark.parametrize("key, value", [
    ("k", 0), ("n", 0), ("trials", 0), ("sigma", -0.1),
    ("radius", -1), ("threads", -2), ("split", 1.5), ("seed", -1),
    ("dist", {"kind": "gmm", "p": 1.5}), ("dist", {"kind": "gmm", "p": -0.1}),
    ("dist", {"kind": "gmm", "mean": [0]}),
    *[(key, value) for key in ("sigma", "radius", "split")
      for value in (float("nan"), float("inf"), -float("inf"))]])
def test_invalid_setting_is_configuration_error(generated, tmp_path, capsys, key, value):
    cfg, run = generated
    bad = _write_config(tmp_path / "bad.json", out=str(tmp_path / "out"), **{key: value})
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(bad),
                                        "--data", str(run / "dataset.csv")])
    assert rc == 1
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [
    ("restarts", 30), ("power_iterations", 50), ("em_eps", 1e-4), ("em_max_iters", 100),
    ("em_radius", None), ("outlier_cap", 50.0), ("force_gaussian_score", True)])
def test_removed_setting_is_unknown_key(generated, tmp_path, capsys, key, value):
    """The power-method, EM and outlier-cap settings are fixed values, not
    config keys (README, "Fixed fit settings"): a config that sets one, even
    to its fixed value, is refused by name."""
    cfg, run = generated
    bad = _write_config(tmp_path / "bad.json", out=str(tmp_path / "out"), **{key: value})
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(bad),
                                        "--data", str(run / "dataset.csv")])
    assert rc == 1
    assert err == f"configuration error: unknown config keys: ['{key}']\n"


@pytest.mark.parametrize("command", [["generate"], ["experiment", "--suite", "table1"]])
def test_negative_seed_flag_is_configuration_error(tmp_path, capsys, command):
    """A negative --seed is refused before numpy's seeding can raise."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "out"))
    rc, err = _exit_and_stderr(capsys, [*command, "--config", str(cfg), "--seed", "-1"])
    assert rc == 1
    assert err == "configuration error: seed must be >= 0\n"


@pytest.mark.parametrize("text", ['{"k": 2,', '{"k": "two"}', '[2]'])
def test_malformed_config_is_configuration_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, err = _exit_and_stderr(capsys, ["generate", "--config", str(bad)])
    assert rc == 1
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, kind", [("5", "int"), ("null", "NoneType"),
                                        ('"kd"', "str"), ("[]", "list")])
def test_config_that_is_not_an_object_is_named_so(tmp_path, capsys, text, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc, err = _exit_and_stderr(capsys, ["generate", "--config", str(bad)])
    assert rc == 1
    assert err == f"configuration error: {bad}: config must be a JSON object, got {kind}\n"


@pytest.mark.parametrize("key, value", [
    ("dist", "gmm"), ("k", 2.5), ("n", True), ("out", 5), ("sigma", "0.1"),
    ("dist", {"kind": "uniform"}), ("dist", {"kind": "gmm", "p": "abc"}),
    ("dist", {"kind": "gmm", "p": True}), ("dist", {"kind": "gmm", "weights": "x"}),
    ("dist", {"kind": "gmm", "means": [[0.0], [1.0, 2.0]]}),
    ("orthogonal", "no"), ("feature_cols", "ab"), ("feature_cols", [True]),
    ("csv_path", 5), ("experiment", 3), ("activation", ["linear"]), ("target_col", True),
    ("dist", {"kind": "gmm", "weights": [float("nan")] * 2}),
    ("dist", {"kind": "gmm", "means": [[float("nan")] * 6, [0.0] * 6]})])
def test_mistyped_setting_is_configuration_error(tmp_path, capsys, key, value):
    """Values of the wrong type that no range check trips: a string for the
    input law, a float or bool for a count, a string for a number, a number
    for a path or name, a string for a flag or a column list, NaN for a
    mixture weight or mean."""
    bad = _write_config(tmp_path / "bad.json", **{"out": str(tmp_path / "out"), key: value})
    rc, err = _exit_and_stderr(capsys, ["generate", "--config", str(bad)])
    assert rc == 1
    assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
    assert key in err


def test_gmm_dist_with_p_and_weights_is_configuration_error(tmp_path, capsys):
    """p is the first of two default weights, so a dist giving both would
    lose one of them: refused, and no model drawn."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "out"),
                        dist={"kind": "gmm", "p": 0.3, "weights": [0.5, 0.5]})
    rc, err = _exit_and_stderr(capsys, ["generate", "--config", str(cfg)])
    assert rc == 1
    assert err == ("configuration error: dist sets both p and weights; p is the first "
                   "of two weights, so give one of them\n")
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("k, d", [(3, 3), (2, 1)])
def test_orthogonal_gating_without_complement_is_configuration_error(tmp_path, capsys,
                                                                     k, d):
    """With k >= d the regressors span the input space, so no gating row is
    orthogonal to them: one message, no warning, and no model drawn."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "out"), k=k, d=d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _exit_and_stderr(capsys, ["generate", "--config", str(cfg)])
    assert rc == 1
    assert err.startswith("configuration error: orthogonal gating needs k < d")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "model.json").exists()


def _non_numeric_cell(lines):
    lines[5] = "abc," + lines[5].split(",", 1)[1]
    return lines


def _two_short_rows(lines):
    lines[3] = lines[3].rsplit(",", 2)[0]
    lines[9] = lines[9].rsplit(",", 2)[0]
    return lines


@pytest.mark.parametrize("edit, message", [
    (_non_numeric_cell, "1 of 800 rows of {} have a missing or non-numeric cell"),
    (_two_short_rows, "2 of 800 rows of {} have a missing or non-numeric cell"),
    (lambda lines: lines[:1], "no numeric rows in {} (0 rejected)")])
def test_unparsed_dataset_rows_are_data_error(generated, tmp_path, capsys, edit, message):
    """moe fit never drops a row: one that does not parse fails the fit."""
    cfg, run = generated
    path = tmp_path / "dataset.csv"
    path.write_text("\n".join(edit((run / "dataset.csv").read_text().splitlines())) + "\n")
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--data", str(path)])
    assert rc == 2
    assert err == "data error: " + message.format(path) + "\n"


def test_model_file_missing_key_is_data_error(generated, tmp_path, capsys):
    cfg, run = generated
    payload = json.loads((run / "model.json").read_text())
    del payload["a"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--model", str(model)])
    assert rc == 2
    assert err == f"data error: {model}: missing key 'a'\n"


def test_distribution_without_kind_is_data_error(generated, tmp_path, capsys):
    cfg, run = generated
    dist = tmp_path / "distribution.json"
    dist.write_text(json.dumps({"d": 6}))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--dist", str(dist)])
    assert rc == 2
    assert err == f"data error: {dist}: missing key 'kind'\n"


@pytest.mark.parametrize("key, value, message", [
    ("weights", [float("nan"), 0.5],
     "input distribution mixture weights must be finite, nonnegative and sum to 1"),
    ("means", [[float("nan")] * 6, [1.0] * 6], "input distribution mixture means must be finite")],
    ids=["weights", "means"])
def test_distribution_with_nan_is_data_error(generated, tmp_path, capsys, key, value, message):
    cfg, run = generated
    payload = {"kind": "gmm", "d": 6, "weights": [0.5, 0.5], "means": [[0.0] * 6, [1.0] * 6]}
    dist = tmp_path / "distribution.json"
    dist.write_text(json.dumps({**payload, key: value}))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--dist", str(dist)])
    assert rc == 2
    assert err == f"data error: {dist}: {message}\n"


def _nan_first_entry(rows):
    return [[float("nan")] + rows[0][1:]] + rows[1:]


@pytest.mark.parametrize("key, edit, message", [
    ("sigma", lambda v: float("nan"), "sigma must be finite and nonnegative"),
    ("radius", lambda v: float("inf"), "radius must be finite and positive"),
    ("a", _nan_first_entry, "regressor and gating rows must be finite"),
    ("w", _nan_first_entry, "regressor and gating rows must be finite")],
    ids=["sigma", "radius", "a", "w"])
def test_model_with_non_finite_value_is_data_error(generated, tmp_path, capsys, key, edit,
                                                   message):
    cfg, run = generated
    payload = json.loads((run / "model.json").read_text())
    payload[key] = edit(payload[key])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--model", str(model)])
    assert rc == 2
    assert err == f"data error: {model}: {message}\n"


@pytest.mark.parametrize("algo", ["spectral+em", "joint-em"])
def test_sigma_whose_square_overflows_is_refused(generated, tmp_path, capsys, algo):
    """sigma**2 overflows above sqrt(max float), about 1.34e154. A config with
    such a sigma, which made every fit raise an OverflowError, is a
    configuration error, and a model.json with one is a data error."""
    cfg, run = generated
    bad = _write_config(tmp_path / "bad.json", out=str(tmp_path / "out"), sigma=1.4e154)
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(bad), "--algo", algo,
                                        "--data", str(run / "dataset.csv")])
    assert rc == 1
    assert err == ("configuration error: sigma must lie in [0, 1.3407807929942596e+154], "
                   "where sigma**2 is finite\n")
    payload = json.loads((run / "model.json").read_text())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**payload, "sigma": 1e300}))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--algo", algo,
                                        "--out", str(tmp_path), "--data", str(run / "dataset.csv"),
                                        "--model", str(model)])
    assert rc == 2
    assert err == (f"data error: {model}: sigma must be at most 1.3407807929942596e+154, "
                   f"where sigma**2 is finite\n")


@pytest.mark.filterwarnings("error")
def test_sigma_whose_transform_overflows_is_numerical_error(generated, tmp_path, capsys):
    """sigma = 1e154 squares to a finite float, but the transform solve's
    3 sigma**2 terms overflow: the spectral fit stops there, naming sigma,
    not at a later stage that cannot say why."""
    _, run = generated
    cfg = _write_config(tmp_path / "big.json", out=str(tmp_path / "out"), sigma=1e154)
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--algo", "spectral+em",
                                        "--data", str(run / "dataset.csv")])
    assert rc == 3
    assert err == ("numerical failure: [cqt] activation 'linear' not valid at sigma=1e+154: "
                   "coefficients (alpha, beta, gamma) = (nan, -inf, -0.000e+00) are not finite\n")


def test_largest_sigma_whose_square_is_finite_is_accepted():
    """The bound is exact: the largest accepted sigma squares to a finite
    float, and the next float up does not."""
    assert math.isfinite(SIGMA_MAX ** 2)
    with pytest.raises(OverflowError):
        math.nextafter(SIGMA_MAX, math.inf) ** 2
    assert ExperimentConfig(sigma=SIGMA_MAX).sigma == SIGMA_MAX
    with pytest.raises(ConfigError):
        ExperimentConfig(sigma=math.nextafter(SIGMA_MAX, math.inf))
    with pytest.raises(ConfigError):
        ExperimentConfig(sigma=10**400)


def test_model_of_another_shape_is_refused_before_the_fit(generated, tmp_path, capsys,
                                                           monkeypatch):
    cfg, run = generated
    other = _write_config(tmp_path / "other.json", out=str(tmp_path / "other"), k=3)
    assert main(["generate", "--config", str(other)]) == 0
    monkeypatch.setattr(cli, "fit_pipeline", lambda *args, **kwargs: pytest.fail("fitted"))
    model = tmp_path / "other" / "model.json"
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--model", str(model)])
    assert rc == 1
    assert err == f"configuration error: {model}: the model's (k, d) is (3, 6), the fit's (2, 6)\n"


def test_distribution_of_another_dimension_is_refused_before_the_fit(generated, tmp_path,
                                                                     capsys, monkeypatch):
    """Given by --dist or found beside the data, a distribution.json whose d
    is not the data's is named with both dimensions, as the --model check is."""
    cfg, run = generated
    monkeypatch.setattr(cli, "fit_pipeline", lambda *args, **kwargs: pytest.fail("fitted"))
    dist = tmp_path / "distribution.json"
    dist.write_text(json.dumps({"kind": "gaussian", "d": 5}))
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(run / "dataset.csv"), "--dist", str(dist)])
    assert rc == 1
    assert err == (f"configuration error: {dist}: the input distribution's d is 5, "
                   f"the data's 6\n")
    beside = tmp_path / "beside"
    beside.mkdir()
    (beside / "dataset.csv").write_bytes((run / "dataset.csv").read_bytes())
    (beside / "distribution.json").write_bytes(dist.read_bytes())
    rc, err = _exit_and_stderr(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path),
                                        "--data", str(beside / "dataset.csv")])
    assert rc == 1
    assert err.startswith(f"configuration error: {beside / 'distribution.json'}: ")


def test_threads_has_no_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("MOE_THREADS", "abc")
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0


def test_nan_label_is_data_error(tmp_path, capsys):
    """A NaN label used to reach the E-step, whose NaN posteriors stalled the
    M-step so the fit reported convergence with a gating fit of 0."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0
    csv = tmp_path / "run" / "dataset.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index("y")] = "nan"
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", "--config", str(cfg), "--data", str(csv),
                 "--model", str(tmp_path / "run" / "model.json")]) == 2
    err = capsys.readouterr().err
    assert err == "data error: 1 of 800 rows have a non-finite label (NaN or inf)\n"


def _overflowing_label_set(tmp_path):
    """A generated k = 2, d = 6, sigma = 0.1 set with one label set to 1e200."""
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0
    csv = tmp_path / "run" / "dataset.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index("y")] = "1e200"
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    return cfg, csv


def test_overflowing_label_is_numerical_exit(tmp_path, capsys):
    """A finite label of 1e200 passes the data checks and the moment cap, but
    its squared residual overflows in the E-step; the fit used to exit 0 with
    a gating fit of 0 instead of failing."""
    cfg, csv = _overflowing_label_set(tmp_path)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main(["fit", "--config", str(cfg), "--data", str(csv),
                   "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: [gating-em] EM iteration 1: the E-step log-likelihood is nan")
    assert not (tmp_path / "run" / "fit_report.json").exists()


def test_overflowing_label_gives_one_message_and_no_warnings(tmp_path, capsys):
    """The label transforms and the E-step overflow on a 1e200 label; the
    cap and em_loop catch the result, so numpy must not warn on the way."""
    cfg, csv = _overflowing_label_set(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--config", str(cfg), "--data", str(csv)])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: [gating-em] EM iteration 1:")


def test_linalg_error_is_numerical_exit(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"))
    assert main(["generate", "--config", str(cfg)]) == 0

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "fit_pipeline", fail)
    capsys.readouterr()
    rc = main(["fit", "--config", str(cfg), "--data", str(tmp_path / "run" / "dataset.csv")])
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"


_ERROR_EXITS = [(ConfigError, 1, "configuration error: "), (DataError, 2, "data error: "),
                (NumericalError, 3, "numerical failure: "),
                (np.linalg.LinAlgError, 3, "numerical failure: "), (OSError, 2, "i/o error: ")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ERROR_EXITS),
       st.sampled_from(["cmd_generate", "cmd_fit", "cmd_experiment", "cmd_ingest"]),
       st.text().filter(lambda text: "".join(text.splitlines()) == text))
def test_error_class_maps_to_exit_code_and_one_stderr_line(error, command, text):
    """Whatever a subcommand raises of the four error classes, with any
    one-line message: its exit code, and on stderr that message behind the
    class's prefix as one line, with no traceback."""
    cls, code, prefix = error

    def fail(args):
        raise cls(text)

    argv = {"cmd_generate": ["generate"], "cmd_experiment": ["experiment", "--suite", "table1"],
            "cmd_fit": ["fit", "--data", "data.csv"],
            "cmd_ingest": ["ingest", "--csv", "a.csv", "--features", "f", "--target", "y"]}
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(cli, command, fail)
        assert main(argv[command]) == code
    assert err.getvalue() == f"{prefix}{text}\n"


def test_unwritable_output_dir_is_data_error(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    cfg = _write_config(tmp_path / "cfg.json", out=str(target / "sub"))
    assert main(["generate", "--config", str(cfg)]) == 2


def test_mom_algo_via_cli(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=20000,
                        d=8)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg), "--algo", "spectral+mom",
               "--data", str(tmp_path / "run" / "dataset.csv"),
               "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "fit_report.json").read_text())
    assert report["gating_fit"] > 0.8


def test_gradient_em_algo_via_cli(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=2000)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg), "--algo", "spectral+gradient-em",
               "--data", str(tmp_path / "run" / "dataset.csv"),
               "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 0


def test_experiment_suite_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(n=600, trials=2, seed=3)
    m1 = run_suite("table2", cfg, tmp_path / "r1")
    m2 = run_suite("table2", cfg, tmp_path / "r2")
    assert not m1["failures"] and not m2["failures"]
    assert ((tmp_path / "r1" / "table2.csv").read_bytes()
            == (tmp_path / "r2" / "table2.csv").read_bytes())
    man = json.loads((tmp_path / "r1" / "table2.manifest.json").read_text())
    assert man["outputs"] == ["table2.csv", "table2_aggregate.csv"]


def test_experiment_suite_parallel_matches_serial(tmp_path):
    """Neither threads nor out is hashed, so the files match byte for byte."""
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    run_suite("table2", ExperimentConfig(n=600, trials=3, seed=3, out=str(serial)), serial)
    run_suite("table2", ExperimentConfig(n=600, trials=3, seed=3, out=str(parallel),
                                         threads=3), parallel)
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_experiment_cli_unknown_suite(tmp_path):
    assert main(["experiment", "--suite", "bogus"]) == 1


def _realdata_config(tmp_path):
    """A config for the realdata suite on a synthetic stand-in CSV."""
    rng = np.random.default_rng(12)
    n = 1030
    x = rng.standard_normal((n, 4)) * [3.0, 1.0, 0.5, 2.0] + [1.0, 0.0, -1.0, 2.0]
    w = np.array([0.0, 0.0, 1.0, 0.0])
    choose = 1 / (1 + np.exp(-(x - x.mean(0)) @ w))
    z = rng.random(n) < choose
    y = np.where(z, x @ [1.0, -0.5, 0.0, 0.2], x @ [-0.3, 0.8, 0.1, -0.4])
    y += 0.05 * rng.standard_normal(n)
    path = tmp_path / "real.csv"
    with path.open("w") as fh:
        fh.write("c1,c2,c3,c4,target\n")
        for i in range(n):
            fh.write(",".join(f"{v:.8f}" for v in x[i]) + f",{y[i]:.8f}\n")
    return ExperimentConfig(experiment="realdata", k=2, sigma=0.1, seed=2,
                            csv_path=str(path), feature_cols=["c1", "c2", "c3", "c4"],
                            target_col="target")


def test_realdata_suite_structural(tmp_path):
    # prediction error must beat the variance baseline
    manifest = run_suite("realdata", _realdata_config(tmp_path), tmp_path / "rd")
    assert not manifest["failures"]
    rows = (tmp_path / "rd" / "realdata.csv").read_text().strip().splitlines()[1:]
    table = {line.split(",")[0]: line.split(",")[1] for line in rows}
    spectral = float(table["spectral+em"])
    joint = float(table["joint-em"])
    variance = float(table["test_variance"])
    assert spectral <= variance
    assert joint <= variance


@pytest.mark.parametrize("overrides,code,message", [
    ({}, 1, "configuration error: realdata needs csv_path, feature_cols, and target_col"),
    ({"csv_path": "missing.csv", "feature_cols": ["c1"], "target_col": "target"}, 2,
     "data error: CSV not found: "),
], ids=["no-csv-settings", "missing-csv"])
def test_realdata_setup_error_exits_with_its_class(tmp_path, capsys, overrides, code, message):
    """A realdata suite that cannot start exits 1 (no CSV settings) or 2 (no
    CSV) with one stderr line, not 3 with a manifest that lists the error."""
    if "csv_path" in overrides:
        overrides = dict(overrides, csv_path=str(tmp_path / overrides["csv_path"]))
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "rd"), **overrides)
    assert main(["experiment", "--suite", "realdata", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "rd" / "realdata.manifest.json").exists()


def test_realdata_rows_hash_each_method_config(tmp_path):
    """Each method row carries the hash of the config it was fitted with (its
    algo, d = the fitted feature count); the baseline row the suite's own."""
    cfg = _realdata_config(tmp_path)
    run_suite("realdata", cfg, tmp_path / "rd")
    rows = (tmp_path / "rd" / "realdata.csv").read_text().strip().splitlines()[1:]
    hashes = {line.split(",")[0]: line.split(",")[-1] for line in rows}
    for algo in ("spectral+em", "joint-em"):
        assert hashes[algo] == replace(cfg, experiment="realdata", algo=algo, d=4).hash()
    assert hashes["spectral+em"] != hashes["joint-em"]
    assert hashes["test_variance"] == cfg.hash()


def _ingest_set(path, n, header="a,b,y"):
    rng = np.random.default_rng(1)
    with path.open("w") as fh:
        fh.write(header + "\n")
        for i in range(n):
            fh.write(f"{rng.normal()},{rng.normal()},{rng.normal()}\n")
    return path


def test_ingest_cli(tmp_path, capsys):
    path = _ingest_set(tmp_path / "t.csv", 100)
    rc = main(["ingest", "--csv", str(path), "--features", "a,b", "--target", "y",
               "--out", str(tmp_path / "ing")])
    assert rc == 0
    assert (tmp_path / "ing" / "train.csv").exists()
    assert (tmp_path / "ing" / "preprocess.json").exists()


@pytest.mark.parametrize("header, features, target, code, message", [
    ("a,a,y", "a,a", "y", 2, "data error: column 'a' appears 2 times in the header of "),
    ("a,b,a", "b", "a", 2, "data error: column 'a' appears 2 times in the header of "),
    ("a,b,y", "a,a", "y", 1, "configuration error: column 'a' is selected more than once"),
    ("a,b,y", "a,b", "a", 1, "configuration error: column 'a' is selected more than once"),
], ids=["repeated-feature-name", "repeated-target-name", "feature-twice", "target-as-feature"])
def test_ingest_repeated_column_is_refused_by_name(tmp_path, capsys, header, features,
                                                    target, code, message):
    """A repeated header name would read its first column for every copy, and
    a column selected twice would enter the fit twice (as two features, or as
    a feature and the target): both are refused, naming the column."""
    csv = _ingest_set(tmp_path / "t.csv", 100, header)
    rc, err = _exit_and_stderr(capsys, ["ingest", "--csv", str(csv), "--features", features,
                                        "--target", target, "--out", str(tmp_path / "ing")])
    assert rc == code
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "ing" / "train.csv").exists()


def _data_rows(path):
    return len(path.read_text().splitlines()) - 1


def test_ingest_takes_split_from_config(tmp_path):
    csv = _ingest_set(tmp_path / "t.csv", 2000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"split": 0.5}))
    rc = main(["ingest", "--config", str(cfg), "--csv", str(csv), "--features", "a,b",
               "--target", "y", "--out", str(tmp_path / "ing")])
    assert rc == 0
    assert _data_rows(tmp_path / "ing" / "train.csv") == 1000
    assert _data_rows(tmp_path / "ing" / "test.csv") == 1000


def test_ingest_split_out_of_range_is_configuration_error(tmp_path, capsys):
    csv = _ingest_set(tmp_path / "t.csv", 100)
    rc, err = _exit_and_stderr(capsys, ["ingest", "--csv", str(csv), "--features", "a,b",
                                        "--target", "y", "--split", "1.5",
                                        "--out", str(tmp_path / "ing")])
    assert rc == 1
    assert err == "configuration error: split must lie strictly between 0 and 1\n"
