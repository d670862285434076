"""End-to-end fitting pipelines and report assembly.

The spectral pipeline runs: CQT coefficient solve -> moment accumulation ->
whitened tensor decomposition -> gating recovery (EM, gradient EM, or the k=2
method of moments) on the learnt regressors. The joint-EM pipeline is the
baseline. Every gating estimate keeps the model's form, k - 1 rows with the
k-th row implicitly zero; ``metrics`` scores it over every softmax gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .activations import Activation
from .cqt import CqtCoefficients, solve_cqt
from .decomposition import DecompositionResult, recover_regressors
from .errors import ConfigError, NumericalError
from .gating_em import EmState, run_em, run_gradient_em
from .gating_mom import mom_gating
from .joint_em import run_joint_em
from .metrics import FitReport, gating_fit_rows, param_error_min_gauge, regressor_fit
from .model import Dataset, InputDistribution, MoeModel, softmax_rows
from .moments import MomentAccumulator, accumulate, finalize

ALGORITHMS = ("spectral+em", "spectral+gradient-em", "spectral+mom", "joint-em")


@dataclass
class PipelineResult:
    a_est: np.ndarray                    # (k, d) unit rows
    w: np.ndarray                        # (k-1, d) gating rows; k-th row is implicitly 0
    cqt: Optional[CqtCoefficients] = None
    decomposition: Optional[DecompositionResult] = None
    em_state: Optional[EmState] = None
    flags: list = field(default_factory=list)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NumericalError as exc:
        raise NumericalError(f"[{name}] {exc}") from exc


def predict_moe(a: np.ndarray, w: np.ndarray, activation: Activation,
                x: np.ndarray) -> np.ndarray:
    """Softmax-weighted expert predictions for estimated parameters, ``w``
    the (k-1, d) gating rows."""
    x = np.atleast_2d(x)
    probs = softmax_rows(x @ w.T, zero_column=True)
    return np.einsum("nk,nk->n", probs, activation(x @ a.T))


def spectral_regressors(data: Dataset, dist: InputDistribution, k: int, sigma: float,
                        activation: Activation, seed=0,
                        ) -> tuple[DecompositionResult, CqtCoefficients]:
    """Algorithm-1 stage: moment tensors and their rank-k decomposition."""
    cqt = _stage("cqt", solve_cqt, activation, sigma)
    acc = MomentAccumulator(data.d, cqt, dist)
    accumulate(acc, data)
    t2, t3 = finalize(acc)
    dec = _stage("decomposition", recover_regressors, t2, t3, k, cqt, seed=seed)
    return dec, cqt


def fit_pipeline(data: Dataset, dist: InputDistribution, k: int, sigma: float,
                 activation: Activation, radius: float = 1.0, seed=0,
                 algo: str = "spectral+em") -> PipelineResult:
    """Run the algorithm ``algo`` (one of ALGORITHMS) end to end on one dataset."""
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if data.d != dist.d:
        raise ConfigError(f"the dataset's d is {data.d}, the input distribution's {dist.d}")

    if algo == "joint-em":
        state = _stage("joint-em", run_joint_em, data.x, data.y, k, sigma, activation,
                       radius=radius, seed=seed)
        return PipelineResult(state.a, state.w, em_state=state)

    dec, cqt = spectral_regressors(data, dist, k, sigma, activation, seed=seed)
    a_est = dec.vectors
    result = PipelineResult(a_est, np.zeros((k - 1, data.d)), cqt=cqt, decomposition=dec)
    if dec.power.weak_flags:
        result.flags.append(f"weak power-method components: {dec.power.weak_flags}")

    if algo == "spectral+mom":
        if k != 2:
            raise ConfigError("the method-of-moments gating estimator requires k = 2")
        if activation.name != "linear":
            raise ConfigError("the method-of-moments gating estimator requires linear experts")
        mom = _stage("gating-mom", mom_gating, data.x, data.y, a_est[0], a_est[1], sigma)
        if mom.below_noise_floor:
            result.flags.append("mom: moment below noise floor")
        # direction only; scale is not identified by the indicator moment
        result.w = mom.w_hat[None, :]
        return result

    runner = run_em if algo == "spectral+em" else run_gradient_em
    # a gating radius of 2R, so any expert-order gauge of the truth fits
    state = _stage("gating-em", runner, data.x, data.y, a_est, sigma, activation,
                   radius=2.0 * radius, seed=seed)
    if not state.converged:
        result.flags.append("gating EM hit the iteration cap without converging")
    result.em_state = state
    result.w = state.w
    return result


def fit_report(result: PipelineResult, config: dict) -> FitReport:
    """The report parts that need no generating model: flags, CQT,
    decomposition and the EM trace."""
    report = FitReport(config=config, flags=list(result.flags))
    if result.cqt is not None:
        report.cqt = result.cqt.to_dict()
    if result.decomposition is not None:
        report.decomposition = result.decomposition.to_dict()
    if result.em_state is not None:
        report.traces["iterations"] = [
            {"iter": r.iteration, "step_norm": r.step_norm, "q_value": r.q_value,
             "loglik": r.loglik}
            for r in result.em_state.trace
        ]
    return report


def evaluate(result: PipelineResult, truth: MoeModel, config: dict) -> FitReport:
    """Score a pipeline result against the generating model."""
    rfit, perm, exact = regressor_fit(result.a_est, truth.a)
    gfit = gating_fit_rows(result.w, truth.w, perm)
    perr, _ = param_error_min_gauge(result.a_est, result.w, truth.a, truth.w)
    return replace(fit_report(result, config), regressor_fit=rfit, gating_fit=gfit,
                   param_error=perr, matched_permutation=perm, permutation_exact=exact)
