"""End-to-end fitting pipelines and report assembly.

The spectral pipeline runs: CQT coefficient solve -> moment accumulation ->
whitened tensor decomposition -> gating recovery (EM, gradient EM, or the k=2
method of moments) on the learnt regressors. The joint-EM pipeline is the
baseline. Outputs are canonicalized before scoring: the gating estimate is
replaced by its minimum-norm softmax-equivalent representative, since the
spectral step fixes an arbitrary expert order and the zero-row convention is
only defined up to that gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .activations import Activation
from .cqt import CqtCoefficients, solve_cqt
from .decomposition import DecompositionOptions, DecompositionResult, recover_regressors
from .errors import ConfigError, NumericalError
from .gating_em import GatingState, run_em, run_gradient_em
from .gating_mom import mom_gating
from .joint_em import JointState, run_joint_em
from .metrics import (FitReport, canonical_gauge, gating_fit, gating_fit_rows,
                      param_error_min_gauge, regressor_fit)
from .model import Dataset, InputDistribution, MoeModel, RNG_NAME, softmax_rows
from .moments import MomentAccumulator, accumulate, finalize

ALGORITHMS = ("spectral+em", "spectral+gradient-em", "spectral+mom", "joint-em")


@dataclass
class PipelineOptions:
    algo: str = "spectral+em"
    restarts: int = 30
    power_iterations: int = 50
    em_eps: float = 1e-4
    em_max_iters: int = 100
    em_radius: Optional[float] = None   # default: 2R, so any expert-order gauge fits
    outlier_cap: float = 50.0
    force_gaussian_score: bool = False  # ablation: ignore known GMM input law
    mom_threshold: float = 0.5

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}")


@dataclass
class PipelineResult:
    algo: str
    a_est: np.ndarray                    # (k, d) unit rows
    w_padded: np.ndarray                 # (k, d) canonical-gauge gating estimate
    cqt: Optional[CqtCoefficients] = None
    decomposition: Optional[DecompositionResult] = None
    gating_state: Optional[GatingState] = None
    joint_state: Optional[JointState] = None
    mom_direction: Optional[np.ndarray] = None
    flags: list = field(default_factory=list)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc


def predict_moe(a: np.ndarray, w_padded: np.ndarray, activation: Activation,
                x: np.ndarray) -> np.ndarray:
    """Softmax-weighted expert predictions for estimated parameters."""
    x = np.atleast_2d(x)
    probs = softmax_rows(x @ w_padded.T)
    return np.einsum("nk,nk->n", probs, activation(x @ a.T))


def spectral_regressors(data: Dataset, dist: InputDistribution, k: int, sigma: float,
                        activation: Activation, opts: PipelineOptions, seed=0,
                        ) -> tuple[DecompositionResult, CqtCoefficients]:
    """Algorithm-1 stage: moment tensors and their rank-k decomposition."""
    cqt = _stage("cqt", solve_cqt, activation, sigma)
    score_dist = dist
    if opts.force_gaussian_score and dist.kind == "gmm":
        score_dist = InputDistribution.standard_gaussian(dist.d)
    acc = MomentAccumulator(data.d, cqt, score_dist, cap_multiplier=opts.outlier_cap)
    accumulate(acc, data)
    t2, t3 = finalize(acc)
    dec = _stage("decomposition", recover_regressors, t2, t3, k, cqt,
                 DecompositionOptions(restarts=opts.restarts,
                                      iterations=opts.power_iterations, seed=seed))
    return dec, cqt


def fit_pipeline(data: Dataset, dist: InputDistribution, k: int, sigma: float,
                 activation: Activation, radius: float = 1.0, seed=0,
                 opts: PipelineOptions = PipelineOptions()) -> PipelineResult:
    """Run the selected algorithm end to end on one dataset."""
    if data.d != dist.d:
        raise ConfigError("dataset and input distribution dimensions differ")

    if opts.algo == "joint-em":
        state = _stage("joint-em", run_joint_em, data.x, data.y, k, sigma, activation,
                       radius=radius, seed=seed, eps=opts.em_eps,
                       max_iters=opts.em_max_iters)
        w_pad = canonical_gauge(np.vstack([state.w, np.zeros((1, data.d))]))
        return PipelineResult(opts.algo, state.a, w_pad, joint_state=state)

    dec, cqt = spectral_regressors(data, dist, k, sigma, activation, opts, seed=seed)
    a_est = dec.vectors
    result = PipelineResult(opts.algo, a_est, np.zeros((k, data.d)), cqt=cqt,
                            decomposition=dec)
    if dec.weak_flags:
        result.flags.append(f"weak power-method components: {dec.weak_flags}")

    if opts.algo == "spectral+mom":
        if k != 2:
            raise ConfigError("the method-of-moments gating estimator requires k = 2")
        if activation.name != "linear":
            raise ConfigError("the method-of-moments gating estimator requires linear experts")
        mom = _stage("gating-mom", mom_gating, data.x, data.y, a_est[0], a_est[1],
                     sigma, threshold=opts.mom_threshold)
        if mom.below_noise_floor:
            result.flags.append("mom: moment below noise floor")
        # direction only; scale is not identified by the indicator moment
        result.mom_direction = mom.w_hat
        result.w_padded = canonical_gauge(np.vstack([mom.w_hat[None, :],
                                                     np.zeros((1, data.d))]))
        return result

    em_radius = opts.em_radius if opts.em_radius is not None else 2.0 * radius
    runner = run_em if opts.algo == "spectral+em" else run_gradient_em
    state = _stage("gating-em", runner, data.x, data.y, a_est, sigma, activation,
                   radius=em_radius, eps=opts.em_eps, max_iters=opts.em_max_iters,
                   seed=seed, truth=None)
    if not state.converged:
        result.flags.append("gating EM hit the iteration cap without converging")
    result.gating_state = state
    result.w_padded = canonical_gauge(np.vstack([state.w, np.zeros((1, data.d))]))
    return result


def evaluate(result: PipelineResult, truth: MoeModel, config: dict) -> FitReport:
    """Score a pipeline result against the generating model."""
    rfit, perm, exact = regressor_fit(result.a_est, truth.a)
    if truth.k == 2:
        est_dir = result.w_padded[0] - result.w_padded[1]
        gfit = gating_fit(est_dir, truth.w[0]) if truth.w.size else float("nan")
    else:
        gfit = gating_fit_rows(result.w_padded, truth.w_padded(), perm)
    perr, _ = param_error_min_gauge(result.a_est, result.w_padded, truth.a,
                                    truth.w_padded())

    report = FitReport(config=config, regressor_fit=rfit, gating_fit=gfit,
                       param_error=perr, matched_permutation=perm,
                       permutation_exact=exact, flags=list(result.flags),
                       rng_name=RNG_NAME)
    if result.cqt is not None:
        report.cqt = result.cqt.to_dict()
    if result.decomposition is not None:
        report.decomposition = result.decomposition.to_dict()
    state = result.gating_state or result.joint_state
    if state is not None:
        report.traces["iterations"] = [
            {"iter": r.iteration, "step_norm": r.step_norm, "q_value": r.q_value,
             "loglik": r.loglik, "dist_to_truth": r.dist_to_truth}
            for r in state.trace
        ]
    return report
