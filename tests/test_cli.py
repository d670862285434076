import json
from pathlib import Path

import numpy as np

from moelearn import ExperimentConfig, MoeModel, run_suite
from moelearn import cli
from moelearn.cli import main


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
    assert trace[0] == "iter,step_norm,q_value,dist_to_truth"


def test_fit_joint_em_trace_has_loglik(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "run"), n=1000)
    main(["generate", "--config", str(cfg)])
    rc = main(["fit", "--config", str(cfg), "--algo", "joint-em",
               "--data", str(tmp_path / "run" / "dataset.csv"),
               "--model", str(tmp_path / "run" / "model.json")])
    assert rc == 0
    trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,step_norm,q_value,dist_to_truth,loglik"


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
    cfg1 = ExperimentConfig(n=600, trials=3, seed=3, threads=1)
    cfg2 = ExperimentConfig(n=600, trials=3, seed=3, threads=3)
    run_suite("table2", cfg1, tmp_path / "serial")
    run_suite("table2", cfg2, tmp_path / "parallel")
    s = (tmp_path / "serial" / "table2.csv").read_text()
    p = (tmp_path / "parallel" / "table2.csv").read_text()
    # threads is part of the config echo, so strip the hash column
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(s) == strip(p)


def test_experiment_cli_unknown_suite(tmp_path):
    assert main(["experiment", "--suite", "bogus"]) == 1


def test_realdata_suite_structural(tmp_path):
    # synthetic stand-in CSV; prediction error must beat the variance baseline
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
    cfg = ExperimentConfig(experiment="realdata", k=2, sigma=0.1, seed=2,
                           csv_path=str(path), feature_cols=["c1", "c2", "c3", "c4"],
                           target_col="target")
    manifest = run_suite("realdata", cfg, tmp_path / "rd")
    assert not manifest["failures"]
    rows = (tmp_path / "rd" / "realdata.csv").read_text().strip().splitlines()[1:]
    table = {line.split(",")[0]: line.split(",")[1] for line in rows}
    spectral = float(table["spectral+em"])
    joint = float(table["joint-em"])
    variance = float(table["test_variance"])
    assert spectral <= variance
    assert joint <= variance


def test_ingest_cli(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.csv"
    with path.open("w") as fh:
        fh.write("a,b,y\n")
        for i in range(100):
            fh.write(f"{rng.normal()},{rng.normal()},{rng.normal()}\n")
    rc = main(["ingest", "--csv", str(path), "--features", "a,b", "--target", "y",
               "--out", str(tmp_path / "ing")])
    assert rc == 0
    assert (tmp_path / "ing" / "train.csv").exists()
    assert (tmp_path / "ing" / "preprocess.json").exists()
