"""Method-of-moments gating recovery for two linear experts.

With known regressors a1, a2 and linear experts, the label-residual ratio
    Ratio(x, y) = (y - <a2, x>) / <a1 - a2, x>
is a Bernoulli variable plus a Cauchy-scaled noise term, so its plain mean is
not integrable. Thresholding it is: the indicator moment
    E[ 1{Ratio <= 1/2} x ] = alpha_scale * w*,
where alpha_scale = E[ f'(<w*,x>) (1 - 2 Phi(|<a1-a2, x>| / 2 sigma)) ] and f
is the sigmoid, Phi the normal CDF (normal_cdf). The estimator normalizes the
empirical moment to a direction and fixes its sign by a plug-in alpha_scale < 0.

The naive mean of Ratio * x is kept as a documented negative control with a
heavy-tail diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .activations import _sigmoid_d1
from .errors import NumericalError
from .model import MoeModel

DENOMINATOR_FLOOR = 1e-12
# the Ratio threshold of the indicator moment
RATIO_THRESHOLD = 0.5


def normal_cdf(t: float) -> float:   # Phi(t), from math.erfc
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


@dataclass
class RatioStatistic:
    values: np.ndarray        # ratios with non-degenerate denominators
    keep: np.ndarray          # boolean mask into the original sample order
    degenerate_count: int


def compute_ratio(x: np.ndarray, y: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> RatioStatistic:
    """Ratio(x, y) per sample, excluding |denominator| below DENOMINATOR_FLOOR."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if np.linalg.norm(a1 - a2) < 1e-10:
        raise NumericalError("degenerate model: a1 == a2, ratio undefined")
    denom = x @ (a1 - a2)
    keep = np.abs(denom) >= DENOMINATOR_FLOOR
    values = (y[keep] - x[keep] @ a2) / denom[keep]
    return RatioStatistic(values, keep, int((~keep).sum()))


@dataclass
class MomResult:
    w_hat: np.ndarray         # unit direction estimate of w*
    alpha_scale: float        # plug-in estimate of the proportionality scalar
    moment_norm: float
    degenerate_count: int
    below_noise_floor: bool


def mom_gating(x: np.ndarray, y: np.ndarray, a1: np.ndarray, a2: np.ndarray,
               sigma: float) -> MomResult:
    """Two-pass estimator: direction from the indicator moment, sign from alpha.

    Emits a warning (and flags the result) when the empirical moment is below
    the 3/sqrt(n) noise floor, i.e. there is no direction to recover.
    """
    x = np.atleast_2d(x)
    n = x.shape[0]
    stat = compute_ratio(x, y, a1, a2)
    xs = x[stat.keep]
    moment = (stat.values <= RATIO_THRESHOLD) @ xs / max(len(stat.values), 1)
    norm = float(np.linalg.norm(moment))
    below = norm < 3.0 / math.sqrt(n)
    if below:
        warnings.warn("indicator moment below the sampling noise floor; "
                      "gating direction not identifiable from this sample", RuntimeWarning)
        u = moment / norm if norm > 0 else np.zeros_like(moment)
        return MomResult(u, 0.0, norm, stat.degenerate_count, True)
    u = moment / norm
    # sign pass: alpha = E[f'(u.x) (1 - 2 Phi(|delta_x| / 2 sigma))]; f' is even
    # in the sign of u, so the plug-in direction suffices, and f' is taken at
    # |u.x|, where the sigmoid is 1 / (1 + exp(-|t|)).
    delta = np.abs(xs @ (np.asarray(a1, dtype=float) - np.asarray(a2, dtype=float)))
    if sigma <= 0:
        alpha = -1.0   # Phi(inf) = 1 so the population scale is -E[f'] < 0
    else:
        cdf = np.array([normal_cdf(t) for t in (delta / (2.0 * sigma)).tolist()])
        alpha = float(np.mean(_sigmoid_d1(np.abs(xs @ u)) * (1.0 - 2.0 * cdf)))
    w_hat = math.copysign(1.0, alpha) * u
    return MomResult(w_hat, alpha, norm, stat.degenerate_count, False)


def ratio_cdf_oracle(x: np.ndarray, z: float, model: MoeModel) -> float:
    """Closed-form conditional CDF P(Ratio <= z | x) for the two-expert model."""
    if model.k != 2:
        raise NumericalError("ratio CDF oracle requires exactly two experts")
    if model.activation.name != "linear":
        raise NumericalError("ratio CDF oracle requires linear experts")
    if model.sigma <= 0:
        raise NumericalError("ratio CDF oracle requires sigma > 0")
    x = np.asarray(x, dtype=float).ravel()
    delta = float((model.a[0] - model.a[1]) @ x)
    if delta == 0.0:
        raise NumericalError("ratio undefined: <a1 - a2, x> = 0")
    f = 1.0 / (1.0 + math.exp(-float(model.w[0] @ x)))
    scale = abs(delta) / model.sigma
    return float(f * normal_cdf((z - 1.0) * scale) + (1.0 - f) * normal_cdf(z * scale))


@dataclass
class NaiveRatioResult:
    mean: np.ndarray          # empirical mean of Ratio * x (unstable)
    tail_ratio: float         # |Ratio| quantile ratio q_99.9 / q_99
    degenerate_count: int


def naive_ratio_mean(x: np.ndarray, y: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> NaiveRatioResult:
    """The non-integrable estimator E[Ratio * x], with a Cauchy-tail diagnostic.

    For Cauchy-like tails the quantile ratio is around 10; for Gaussian tails
    it is about 1.28.
    """
    x = np.atleast_2d(x)
    stat = compute_ratio(x, y, a1, a2)
    mean = stat.values @ x[stat.keep] / max(len(stat.values), 1)
    absval = np.abs(stat.values)
    q99, q999 = np.quantile(absval, [0.99, 0.999])
    tail = float(q999 / q99) if q99 > 0 else float("inf")
    return NaiveRatioResult(mean, tail, stat.degenerate_count)
