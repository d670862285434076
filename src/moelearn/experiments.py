"""Experiment configuration, instance generation, and the reproduction suites.

Suites mirror the synthetic benchmarks: fit tables for Gaussian and
Gaussian-mixture inputs, error-vs-iteration comparisons against joint EM,
sample-size and nonlinearity sweeps, and a real-data harness on user-supplied
CSVs. Every output embeds the configuration hash; reruns with the same config
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError, MoeError
from .metrics import (canonical_gauge, config_hash, gating_fit,
                      param_error_min_gauge, write_aggregate_csv)
from .model import (Dataset, InputDistribution, MoeModel, make_rng,
                    sample_dataset, spawn_seeds)
from .pipeline import PipelineOptions, evaluate, fit_pipeline, predict_moe
from .tabular import ingest_csv

SUITES = ("table1", "table2", "fig_k3", "fig_k4", "fig_nonorth",
          "varying_n", "nonlinear", "realdata")


@dataclass
class ExperimentConfig:
    """A single experiment cell; all defaults are explicit after loading."""

    experiment: str = "custom"
    k: int = 2
    d: int = 10
    sigma: float = 0.1
    activation: str = "linear"
    radius: float = 1.0
    orthogonal: bool = True            # enforce w_i perpendicular to span{a_j}
    dist: dict = field(default_factory=lambda: {"kind": "gaussian"})
    n: int = 2000
    trials: int = 10
    seed: int = 0
    algo: str = "spectral+em"
    restarts: int = 30
    power_iterations: int = 50
    em_eps: float = 1e-4
    em_max_iters: int = 100
    em_radius: Optional[float] = None
    outlier_cap: float = 50.0
    force_gaussian_score: bool = False
    threads: int = 1
    out: str = "out"
    # real-data fields
    csv_path: Optional[str] = None
    feature_cols: Optional[list] = None
    target_col: Optional[str] = None
    split: float = 0.75

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.n < 1 or self.trials < 1:
            raise ConfigError("k, d, n, trials must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        Activation.by_name(self.activation)   # validate the name early

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        payload = json.loads(Path(path).read_text())
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())

    def pipeline_options(self) -> PipelineOptions:
        return PipelineOptions(algo=self.algo, restarts=self.restarts,
                               power_iterations=self.power_iterations,
                               em_eps=self.em_eps, em_max_iters=self.em_max_iters,
                               em_radius=self.em_radius, outlier_cap=self.outlier_cap,
                               force_gaussian_score=self.force_gaussian_score)


def draw_instance(config: ExperimentConfig, seed) -> tuple[MoeModel, InputDistribution]:
    """Draw a model per the synthetic protocol: regressor rows uniform on the
    sphere; gating rows uniform on the sphere, optionally orthogonalized
    against the regressor span; mixture means uniform on the sphere."""
    rng = make_rng(seed)
    k, d = config.k, config.d
    a = rng.standard_normal((k, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    w = rng.standard_normal((k - 1, d))
    if config.orthogonal and k > 1:
        if 2 * k - 1 >= d:
            import warnings
            warnings.warn(f"2k-1 = {2 * k - 1} >= d = {d}: outside the regime "
                          "where orthogonal gating rows are generic", RuntimeWarning)
        q, _ = np.linalg.qr(a.T)
        w = w - (w @ q) @ q.T
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ConfigError("degenerate gating draw: zero vector after projection")
    w = w / norms * min(1.0, config.radius)

    spec = dict(config.dist)
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        dist = InputDistribution.standard_gaussian(d)
    elif kind == "gmm":
        p = float(spec.get("p", 0.5))
        mu1 = rng.standard_normal(d)
        mu1 /= np.linalg.norm(mu1)
        mu2 = rng.standard_normal(d)
        mu2 /= np.linalg.norm(mu2)
        means = spec.get("means")
        weights = spec.get("weights", [p, 1.0 - p])
        dist = InputDistribution.gaussian_mixture(
            weights, means if means is not None else [mu1, mu2])
    else:
        raise ConfigError(f"unknown input distribution kind {kind!r}")
    model = MoeModel(a=a, w=w, sigma=config.sigma,
                     activation=Activation.by_name(config.activation),
                     radius=config.radius)
    return model, dist


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """One model draw, one dataset, one fit; returns metrics and traces."""
    model_seed, data_seed, algo_seed = spawn_seeds(config.seed, 3 * config.trials)[3 * trial:3 * trial + 3]
    model, dist = draw_instance(config, model_seed)
    data = sample_dataset(model, dist, config.n, data_seed)
    result = fit_pipeline(data, dist, config.k, config.sigma, model.activation,
                          radius=config.radius, seed=algo_seed,
                          opts=config.pipeline_options())
    report = evaluate(result, model, config.to_dict())

    out = {"trial": trial, "regressor_fit": report.regressor_fit,
           "gating_fit": report.gating_fit, "param_error": report.param_error,
           "flags": report.flags}
    state = result.gating_state or result.joint_state
    if state is not None:
        out["converged"] = state.converged
        out["iterations"] = len(state.trace)
        out["step_norms"] = [r.step_norm for r in state.trace]
        # per-iteration errors against the truth for curve suites
        errs, gfits = [], []
        for it in state.iterates:
            if result.joint_state is not None:
                a_t, w_t = it
            else:
                a_t, w_t = result.a_est, it
            w_pad = canonical_gauge(np.vstack([w_t, np.zeros((1, config.d))]))
            errs.append(param_error_min_gauge(a_t, w_pad, model.a,
                                              model.w_padded())[0])
            if config.k == 2:
                gfits.append(gating_fit(w_pad[0] - w_pad[1], model.w[0]))
        out["error_curve"] = errs
        out["gating_fit_curve"] = gfits
    return out


def _cell(manifest: dict, label: str, cfg: ExperimentConfig):
    """Run one suite cell; on failure record it and keep the completed rows."""
    try:
        return _run_trials(cfg)
    except MoeError as exc:
        manifest["failures"].append(f"{label}: {exc}")
        return None


def _run_trials(config: ExperimentConfig) -> list[dict]:
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = [pool.submit(run_trial, config, t) for t in range(config.trials)]
            return [f.result() for f in futures]
    return [run_trial(config, t) for t in range(config.trials)]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_table2(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """Orthogonal vs non-orthogonal fit table (k=2, d=10, sigma=0.1, n=2000)."""
    rows, agg = [], []
    for label, orth in (("orthogonal", True), ("non-orthogonal", False)):
        cfg = replace(base, experiment="table2", k=2, d=10, sigma=0.1, n=base.n,
                      orthogonal=orth, algo="spectral+em",
                      dist={"kind": "gaussian"})
        results = _cell(manifest, label, cfg)
        if results is None:
            continue
        for metric in ("regressor_fit", "gating_fit"):
            vals = np.array([r[metric] for r in results])
            rows.append([label, metric, _fmt(float(vals.mean())),
                         _fmt(float(vals.std())), len(vals), cfg.hash()])
            agg.append({"config_hash": cfg.hash(), "metric": f"{label}:{metric}",
                        "mean": float(vals.mean()), "std": float(vals.std()),
                        "trials": len(vals)})
    path = outdir / "table2.csv"
    _write_rows(path, ["setting", "metric", "mean", "std", "trials", "config_hash"], rows)
    agg_path = outdir / "table2_aggregate.csv"
    write_aggregate_csv(agg_path, agg)
    return [path, agg_path]


def suite_table1(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """Gaussian-mixture-input fit table over mixing probabilities."""
    ps = (0.1, 0.3, 0.5, 0.7, 0.9)
    cells = {}
    hashes = []
    agg = []
    for p in ps:
        cfg = replace(base, experiment="table1", k=2, d=10, sigma=0.1, n=base.n,
                      orthogonal=False, algo="spectral+em",
                      dist={"kind": "gmm", "p": p})
        results = _cell(manifest, f"p={p}", cfg)
        hashes.append(cfg.hash())
        if results is None:
            for metric in ("regressor_fit", "gating_fit"):
                cells[(metric, p)] = "failed"
            continue
        for metric in ("regressor_fit", "gating_fit"):
            vals = np.array([r[metric] for r in results])
            cells[(metric, p)] = f"{vals.mean():.3f} +/- {vals.std():.3f}"
            agg.append({"config_hash": cfg.hash(), "metric": f"p={p}:{metric}",
                        "mean": float(vals.mean()), "std": float(vals.std()),
                        "trials": len(vals)})
    rows = [[metric] + [cells[(metric, p)] for p in ps] + [config_hash({"cells": hashes})]
            for metric in ("regressor_fit", "gating_fit")]
    path = outdir / "table1.csv"
    _write_rows(path, ["metric"] + [f"p={p}" for p in ps] + ["config_hash"], rows)
    agg_path = outdir / "table1_aggregate.csv"
    write_aggregate_csv(agg_path, agg)
    return [path, agg_path]


def _suite_fig_k(base: ExperimentConfig, outdir: Path, manifest: dict, k: int) -> list[Path]:
    """Per-iteration E(A, W) curves: spectral pipeline vs joint EM."""
    rows = []
    for algo in ("spectral+em", "joint-em"):
        cfg = replace(base, experiment=f"fig_k{k}", k=k, d=10, sigma=0.5, n=8000,
                      orthogonal=False, algo=algo, dist={"kind": "gaussian"})
        results = _cell(manifest, algo, cfg)
        if results is None:
            continue
        h = cfg.hash()
        for r in results:
            for it, err in enumerate(r.get("error_curve", []), start=1):
                rows.append([algo, r["trial"], it, _fmt(err), h])
    path = outdir / f"fig_k{k}.csv"
    _write_rows(path, ["algo", "trial", "iter", "param_error", "config_hash"], rows)
    return [path]


def suite_fig_nonorth(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """GatingFit vs EM iteration under the non-orthogonal draw (k=2)."""
    cfg = replace(base, experiment="fig_nonorth", k=2, d=10, sigma=0.1, n=2000,
                  orthogonal=False, algo="spectral+em", dist={"kind": "gaussian"})
    results = _cell(manifest, "fig_nonorth", cfg) or []
    rows = []
    h = cfg.hash()
    for r in results:
        for it, fit in enumerate(r.get("gating_fit_curve", []), start=1):
            rows.append([r["trial"], it, _fmt(fit), h])
    path = outdir / "fig_nonorth.csv"
    _write_rows(path, ["trial", "iter", "gating_fit", "config_hash"], rows)
    return [path]


def suite_varying_n(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """Final E(A, W) for both algorithms as the sample count grows."""
    rows = []
    for n in (1000, 5000, 10000):
        for algo in ("spectral+em", "joint-em"):
            cfg = replace(base, experiment="varying_n", k=3, d=5, sigma=0.5, n=n,
                          orthogonal=False, algo=algo, dist={"kind": "gaussian"})
            results = _cell(manifest, f"n={n}:{algo}", cfg)
            if results is None:
                continue
            vals = np.array([r["param_error"] for r in results])
            rows.append([n, algo, _fmt(float(np.median(vals))), _fmt(float(vals.mean())),
                         _fmt(float(vals.std())), len(vals), cfg.hash()])
    path = outdir / "varying_n.csv"
    _write_rows(path, ["n", "algo", "median", "mean", "std", "trials", "config_hash"], rows)
    return [path]


def suite_nonlinear(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """Sigmoid and ReLU experts, spectral pipeline vs joint EM."""
    rows = []
    for act in ("sigmoid", "relu"):
        for algo in ("spectral+em", "joint-em"):
            cfg = replace(base, experiment="nonlinear", k=3, d=5, sigma=0.1,
                          n=10000, activation=act, algo=algo,
                          orthogonal=False, dist={"kind": "gaussian"})
            results = _cell(manifest, f"{act}:{algo}", cfg)
            if results is None:
                continue
            vals = np.array([r["param_error"] for r in results])
            fits = np.array([r["regressor_fit"] for r in results])
            rows.append([act, algo, _fmt(float(np.median(vals))),
                         _fmt(float(fits.mean())), len(vals), cfg.hash()])
    path = outdir / "nonlinear.csv"
    _write_rows(path, ["activation", "algo", "median_param_error",
                       "mean_regressor_fit", "trials", "config_hash"], rows)
    return [path]


def suite_realdata(base: ExperimentConfig, outdir: Path, manifest: dict) -> list[Path]:
    """Prediction error on a user-supplied CSV: spectral vs joint EM vs the
    test-set variance baseline. Inputs are whitened and the target scaled to
    [-1, 1]; errors are reported in the scaled units.

    The fitted experts have unit-norm rows while the scaled target can have a
    much smaller spread, so each method's raw predictions get a train-set
    affine calibration (scale and offset); the calibration family contains the
    constant predictor, which keeps the variance baseline meaningful. The raw
    uncalibrated error is reported alongside.
    """
    if not base.csv_path or not base.feature_cols or base.target_col is None:
        raise ConfigError("realdata needs csv_path, feature_cols, and target_col")
    tab = ingest_csv(base.csv_path, base.feature_cols, base.target_col,
                     split=base.split, seed=base.seed)
    d = tab.train_x.shape[1]
    data = Dataset(tab.train_x, tab.train_y)
    dist = InputDistribution.standard_gaussian(d)
    act = Activation.by_name(base.activation)
    rows = []
    h = base.hash()
    for algo in ("spectral+em", "joint-em"):
        cfg = replace(base, algo=algo, d=d)
        try:
            res = fit_pipeline(data, dist, cfg.k, cfg.sigma, act, radius=cfg.radius,
                               seed=cfg.seed, opts=cfg.pipeline_options())
            pred_tr = predict_moe(res.a_est, res.w_padded, act, tab.train_x)
            pred_te = predict_moe(res.a_est, res.w_padded, act, tab.test_x)
            var_tr = float(np.var(pred_tr))
            if var_tr > 1e-12:
                scale = float(np.cov(pred_tr, tab.train_y, bias=True)[0, 1] / var_tr)
            else:
                scale = 0.0
            offset = float(np.mean(tab.train_y) - scale * np.mean(pred_tr))
            err = float(np.mean((scale * pred_te + offset - tab.test_y) ** 2))
            raw_err = float(np.mean((pred_te - tab.test_y) ** 2))
            rows.append([algo, _fmt(err), _fmt(raw_err), h])
        except MoeError as exc:
            rows.append([algo, f"failed: {exc}", "", h])
    baseline = float(np.var(tab.test_y))
    rows.append(["test_variance", _fmt(baseline), _fmt(baseline), h])
    path = outdir / "realdata.csv"
    _write_rows(path, ["method", "prediction_error", "prediction_error_uncalibrated",
                       "config_hash"], rows)
    return [path]


_SUITE_FNS = {
    "table1": suite_table1,
    "table2": suite_table2,
    "fig_k3": lambda cfg, out, man: _suite_fig_k(cfg, out, man, 3),
    "fig_k4": lambda cfg, out, man: _suite_fig_k(cfg, out, man, 4),
    "fig_nonorth": suite_fig_nonorth,
    "varying_n": suite_varying_n,
    "nonlinear": suite_nonlinear,
    "realdata": suite_realdata,
}


def run_suite(name: str, config: ExperimentConfig, outdir: str | Path) -> dict:
    """Run one suite; completed outputs are kept and failures listed in the
    manifest."""
    if name not in _SUITE_FNS:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"suite": name, "config_hash": config.hash(), "outputs": [], "failures": []}
    try:
        paths = _SUITE_FNS[name](config, outdir, manifest)
        manifest["outputs"] = [p.name for p in paths]
    except MoeError as exc:
        manifest["failures"].append(str(exc))
    (outdir / f"{name}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
