"""Experiment configuration, instance generation, and the reproduction suites.

Suites mirror the synthetic benchmarks: fit tables for Gaussian and
Gaussian-mixture inputs, error-vs-iteration comparisons against joint EM,
sample-size and nonlinearity sweeps, and a real-data harness on user-supplied
CSVs. Every output embeds the configuration hash; reruns with the same config
produce byte-identical files.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError, MoeError, require_numbers
from .metrics import config_hash, gating_fit, param_error_min_gauge, write_csv
from .model import (INPUT_KINDS, SIGMA_MAX, Dataset, InputDistribution, MoeModel,
                    make_rng, sample_dataset)
from .pipeline import ALGORITHMS, evaluate, fit_pipeline, predict_moe
from .tabular import ingest_csv

# the keys of an ExperimentConfig's dist object
DIST_KEYS = ("kind", "p", "means", "weights")


@dataclass
class ExperimentConfig:
    """A single experiment cell; all defaults are explicit after loading."""

    algo: str = "spectral+em"
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
    threads: int = 1
    out: str = "out"
    # real-data fields
    csv_path: Optional[str] = None
    feature_cols: Optional[list] = None
    target_col: Optional[str | int] = None
    split: float = 0.75

    def __post_init__(self):
        require_numbers(self, ints=("k", "d", "n", "trials", "seed", "threads"),
                        reals=("sigma", "radius", "split"))
        _check_types(self)
        _check_dist(self.dist)
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}")
        if self.k < 1 or self.d < 1 or self.n < 1 or self.trials < 1:
            raise ConfigError("k, d, n, trials must be positive")
        if not 0 <= self.sigma <= SIGMA_MAX:
            raise ConfigError(f"sigma must lie in [0, {SIGMA_MAX!r}], where sigma**2 is finite")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < self.split < 1.0:
            raise ConfigError("split must lie strictly between 0 and 1")
        Activation.by_name(self.activation)   # validate the name early

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
            if not isinstance(payload, dict):
                raise ConfigError(f"{path}: config must be a JSON object, "
                                  f"got {type(payload).__name__}")
            unknown = set(payload) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            return cls(**payload)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"{path}: a setting has the wrong type: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())


def _is_column(value) -> bool:
    """A CSV column name or index; a bool is neither."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _check_types(config: ExperimentConfig) -> None:
    """ConfigError unless each setting that is not a number has its type. A
    JSON config can give 5 for a path, "no" for a flag or "ab" for a column
    list, and each would be used as it stands or fail later with a traceback."""
    cols = config.feature_cols
    for name, what, ok in (
            ("experiment", "a string", isinstance(config.experiment, str)),
            ("activation", "a string", isinstance(config.activation, str)),
            ("out", "a string", isinstance(config.out, str)),
            ("orthogonal", "true or false", isinstance(config.orthogonal, bool)),
            ("csv_path", "a string or null", config.csv_path is None
             or isinstance(config.csv_path, str)),
            ("feature_cols", "a list of column names or indices, or null", cols is None
             or (isinstance(cols, list) and all(map(_is_column, cols)))),
            ("target_col", "a column name or index, or null", config.target_col is None
             or _is_column(config.target_col))):
        if not ok:
            raise ConfigError(f"{name} must be {what}, got {getattr(config, name)!r}")


def _check_dist(dist) -> None:
    """ConfigError unless ``dist`` is an input-law object draw_instance can
    read: kind in INPUT_KINDS, p a number in [0, 1], means and weights
    numeric, p and weights not both given, and no other key."""
    if not isinstance(dist, dict) or dist.get("kind", "gaussian") not in INPUT_KINDS:
        raise ConfigError(f"dist must be an object with kind in {INPUT_KINDS}, got {dist!r}")
    unknown = sorted(set(dist) - set(DIST_KEYS))
    if unknown:
        raise ConfigError(f"unknown dist keys {unknown}; allowed: {list(DIST_KEYS)}")
    p = dist.get("p", 0.5)
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ConfigError(f"dist p must be a number in [0, 1], got {p!r}")
    if "p" in dist and "weights" in dist:
        raise ConfigError("dist sets both p and weights; p is the first of two weights, "
                          "so give one of them")
    for key in ("means", "weights"):
        if key in dist:
            try:
                np.asarray(dist[key], dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(f"dist {key} must be numbers, got {dist[key]!r}") from None


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
        if k >= d:
            raise ConfigError(f"orthogonal gating needs k < d (k = {k}, d = {d}): the "
                              "regressors span the whole input space")
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

    spec = config.dist
    if spec.get("kind", "gaussian") == "gaussian":
        dist = InputDistribution.standard_gaussian(d)
    else:
        p = float(spec.get("p", 0.5))
        mu1 = rng.standard_normal(d)
        mu1 /= np.linalg.norm(mu1)
        mu2 = rng.standard_normal(d)
        mu2 /= np.linalg.norm(mu2)
        means = spec.get("means")
        weights = spec.get("weights", [p, 1.0 - p])
        dist = InputDistribution.gaussian_mixture(
            weights, means if means is not None else [mu1, mu2])
    model = MoeModel(a=a, w=w, sigma=config.sigma,
                     activation=Activation.by_name(config.activation),
                     radius=config.radius)
    return model, dist


def trial_seeds(seed: int, trial: int) -> list[np.random.SeedSequence]:
    """The model, data and algorithm seeds of one trial: children 3*trial to
    3*trial + 2 of SeedSequence(seed).spawn(...), built without spawning the
    children of the trials before it."""
    return [np.random.SeedSequence(seed, spawn_key=(3 * trial + j,)) for j in range(3)]


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """One model draw, one dataset, one fit; returns metrics and traces."""
    model_seed, data_seed, algo_seed = trial_seeds(config.seed, trial)
    model, dist = draw_instance(config, model_seed)
    data = sample_dataset(model, dist, config.n, data_seed)
    result = fit_pipeline(data, dist, config.k, config.sigma, model.activation,
                          radius=config.radius, seed=algo_seed, algo=config.algo)
    report = evaluate(result, model, config.to_dict())

    out = {"trial": trial, "regressor_fit": report.regressor_fit,
           "gating_fit": report.gating_fit, "param_error": report.param_error,
           "flags": report.flags}
    state = result.em_state
    if state is not None:
        out["converged"] = state.converged
        out["iterations"] = len(state.trace)
        out["step_norms"] = [r.step_norm for r in state.trace]
        # per-iteration errors against the truth for curve suites
        errs, gfits = [], []
        for a_t, w_t in state.iterates:
            errs.append(param_error_min_gauge(a_t, w_t, model.a, model.w)[0])
            if config.k == 2:
                gfits.append(gating_fit(w_t[0], model.w[0]))
        out["error_curve"] = errs
        out["gating_fit_curve"] = gfits
    return out


def _run_trials(config: ExperimentConfig) -> list[dict]:
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = [pool.submit(run_trial, config, t) for t in range(config.trials)]
            return [f.result() for f in futures]
    return [run_trial(config, t) for t in range(config.trials)]


def _cells(base: ExperimentConfig, manifest: dict, fixed: dict,
           cells: list[tuple[str, dict]]) -> list[tuple]:
    """(label, config, trial results) of each cell ``replace(base, **fixed, **overrides)``;
    a failed cell's results are None and the manifest lists it."""
    out = []
    for label, overrides in cells:
        cfg = replace(base, **fixed, **overrides)
        try:
            results = _run_trials(cfg)
        except MoeError as exc:
            manifest["failures"].append(f"{label}: {exc}")
            results = None
        out.append((label, cfg, results))
    return out


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _mean_std(results: list[dict], metric: str) -> tuple[float, float]:
    vals = np.array([r[metric] for r in results])
    return float(vals.mean()), float(vals.std())


# ---------------------------------------------------------------------------
# suites: each returns {file name: (header, rows)} and run_suite writes them
# ---------------------------------------------------------------------------

_COMPARED = ("spectral+em", "joint-em")
_AGGREGATE_HEADER = ["config_hash", "metric", "mean", "std", "trials"]


def suite_table2(base: ExperimentConfig, manifest: dict) -> dict:
    """Orthogonal vs non-orthogonal fit table (k=2, d=10, sigma=0.1, n=2000)."""
    fixed = dict(experiment="table2", k=2, d=10, sigma=0.1, algo="spectral+em",
                 dist={"kind": "gaussian"})
    cells = [("orthogonal", {"orthogonal": True}), ("non-orthogonal", {"orthogonal": False})]
    rows, agg = [], []
    for label, cfg, results in _cells(base, manifest, fixed, cells):
        if results is None:
            continue
        for metric in ("regressor_fit", "gating_fit"):
            mean, std = _mean_std(results, metric)
            rows.append([label, metric, _fmt(mean), _fmt(std), len(results), cfg.hash()])
            agg.append([cfg.hash(), f"{label}:{metric}", _fmt(mean), _fmt(std), len(results)])
    return {"table2.csv": (["setting", "metric", "mean", "std", "trials", "config_hash"], rows),
            "table2_aggregate.csv": (_AGGREGATE_HEADER, agg)}


def suite_table1(base: ExperimentConfig, manifest: dict) -> dict:
    """Gaussian-mixture-input fit table over mixing probabilities."""
    fixed = dict(experiment="table1", k=2, d=10, sigma=0.1, orthogonal=False,
                 algo="spectral+em")
    cells = _cells(base, manifest, fixed, [(f"p={p}", {"dist": {"kind": "gmm", "p": p}})
                                           for p in (0.1, 0.3, 0.5, 0.7, 0.9)])
    table = {"regressor_fit": ["regressor_fit"], "gating_fit": ["gating_fit"]}
    agg = []
    for label, cfg, results in cells:
        for metric, row in table.items():
            if results is None:
                row.append("failed")
                continue
            mean, std = _mean_std(results, metric)
            row.append(f"{mean:.3f} +/- {std:.3f}")
            agg.append([cfg.hash(), f"{label}:{metric}", _fmt(mean), _fmt(std), len(results)])
    h = config_hash({"cells": [cfg.hash() for _, cfg, _ in cells]})
    header = ["metric"] + [label for label, _, _ in cells] + ["config_hash"]
    return {"table1.csv": (header, [row + [h] for row in table.values()]),
            "table1_aggregate.csv": (_AGGREGATE_HEADER, agg)}


def _suite_fig_k(base: ExperimentConfig, manifest: dict, k: int) -> dict:
    """Per-iteration E(A, W) curves: spectral pipeline vs joint EM."""
    fixed = dict(experiment=f"fig_k{k}", k=k, d=10, sigma=0.5, n=8000, orthogonal=False,
                 dist={"kind": "gaussian"})
    rows = []
    for algo, cfg, results in _cells(base, manifest, fixed,
                                     [(algo, {"algo": algo}) for algo in _COMPARED]):
        h = cfg.hash()
        for r in results or []:
            for it, err in enumerate(r.get("error_curve", []), start=1):
                rows.append([algo, r["trial"], it, _fmt(err), h])
    return {f"fig_k{k}.csv": (["algo", "trial", "iter", "param_error", "config_hash"], rows)}


def suite_fig_nonorth(base: ExperimentConfig, manifest: dict) -> dict:
    """GatingFit vs EM iteration under the non-orthogonal draw (k=2)."""
    fixed = dict(experiment="fig_nonorth", k=2, d=10, sigma=0.1, n=2000, orthogonal=False,
                 algo="spectral+em", dist={"kind": "gaussian"})
    [(_, cfg, results)] = _cells(base, manifest, fixed, [("fig_nonorth", {})])
    rows = []
    h = cfg.hash()
    for r in results or []:
        for it, fit in enumerate(r.get("gating_fit_curve", []), start=1):
            rows.append([r["trial"], it, _fmt(fit), h])
    return {"fig_nonorth.csv": (["trial", "iter", "gating_fit", "config_hash"], rows)}


def suite_varying_n(base: ExperimentConfig, manifest: dict) -> dict:
    """Final E(A, W) for both algorithms as the sample count grows."""
    fixed = dict(experiment="varying_n", k=3, d=5, sigma=0.5, orthogonal=False,
                 dist={"kind": "gaussian"})
    cells = [(f"n={n}:{algo}", {"n": n, "algo": algo})
             for n in (1000, 5000, 10000) for algo in _COMPARED]
    rows = []
    for _, cfg, results in _cells(base, manifest, fixed, cells):
        if results is None:
            continue
        vals = np.array([r["param_error"] for r in results])
        rows.append([cfg.n, cfg.algo, _fmt(float(np.median(vals))), _fmt(float(vals.mean())),
                     _fmt(float(vals.std())), len(vals), cfg.hash()])
    return {"varying_n.csv": (["n", "algo", "median", "mean", "std", "trials", "config_hash"],
                              rows)}


def suite_nonlinear(base: ExperimentConfig, manifest: dict) -> dict:
    """Sigmoid and ReLU experts, spectral pipeline vs joint EM."""
    fixed = dict(experiment="nonlinear", k=3, d=5, sigma=0.1, n=10000, orthogonal=False,
                 dist={"kind": "gaussian"})
    cells = [(f"{act}:{algo}", {"activation": act, "algo": algo})
             for act in ("sigmoid", "relu") for algo in _COMPARED]
    rows = []
    for _, cfg, results in _cells(base, manifest, fixed, cells):
        if results is None:
            continue
        vals = np.array([r["param_error"] for r in results])
        fits = np.array([r["regressor_fit"] for r in results])
        rows.append([cfg.activation, cfg.algo, _fmt(float(np.median(vals))),
                     _fmt(float(fits.mean())), len(vals), cfg.hash()])
    return {"nonlinear.csv": (["activation", "algo", "median_param_error",
                               "mean_regressor_fit", "trials", "config_hash"], rows)}


def suite_realdata(base: ExperimentConfig, manifest: dict) -> dict:
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
    for algo in _COMPARED:
        h = replace(base, experiment="realdata", algo=algo, d=d).hash()   # the fitted config
        try:
            res = fit_pipeline(data, dist, base.k, base.sigma, act, radius=base.radius,
                               seed=base.seed, algo=algo)
            pred_tr = predict_moe(res.a_est, res.w, act, tab.train_x)
            pred_te = predict_moe(res.a_est, res.w, act, tab.test_x)
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
    rows.append(["test_variance", _fmt(baseline), _fmt(baseline), base.hash()])
    return {"realdata.csv": (["method", "prediction_error", "prediction_error_uncalibrated",
                              "config_hash"], rows)}


_SUITE_FNS = {
    "table1": suite_table1,
    "table2": suite_table2,
    "fig_k3": lambda cfg, man: _suite_fig_k(cfg, man, 3),
    "fig_k4": lambda cfg, man: _suite_fig_k(cfg, man, 4),
    "fig_nonorth": suite_fig_nonorth,
    "varying_n": suite_varying_n,
    "nonlinear": suite_nonlinear,
    "realdata": suite_realdata,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, config: ExperimentConfig, outdir: str | Path) -> dict:
    """Run one suite and write its tables; completed outputs are kept and
    failed cells listed in the manifest. A suite's own setup errors raise."""
    if name not in _SUITE_FNS:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"suite": name, "config_hash": config.hash(), "outputs": [], "failures": []}
    for file_name, (header, rows) in _SUITE_FNS[name](config, manifest).items():
        write_csv(outdir / file_name, header, rows)
        manifest["outputs"].append(file_name)
    (outdir / f"{name}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
