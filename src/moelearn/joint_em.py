"""Classical joint EM over regressors and gating, from random initialization.

This is the baseline that gets stuck in local optima. E-step as in the
gating-only EM; M-step updates the experts (responsibility-weighted least
squares constrained to the unit sphere for linear experts; for nonlinear ones
projected ascent on the sphere, along the tangent gradient, then normalised)
and then the gating rows, both ascents run by gating_em.ascend. No expert
update lowers its Q-term on the sphere, so the observed-data log-likelihood
is nondecreasing. The outer loop is gating_em.em_loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError
from .gating_em import EmState, ascend, em_loop, m_step, random_gating_init
from .model import make_rng

_RIDGE = 1e-8
_TANGENT_TOL = 1e-6   # the expert step's stop, relative to max(1, |objective|)


def _sphere_weighted_ls(h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """argmin_{||a||=1} a^T h a - 2 b^T a, via the secular equation.

    Returns (a, ridge_flag). Stationarity gives
    (h + nu I) a = b with nu >= -lambda_min; phi(nu) = ||a(nu)||^2 decreases in
    nu, so the feasible nu solves phi(nu) = 1.
    """
    d = h.shape[0]
    ridge_flag = False
    evals, evecs = np.linalg.eigh(h)
    if evals[-1] <= 0 or evals[0] < _RIDGE * max(evals[-1], 1.0):
        h = h + _RIDGE * np.eye(d)
        evals = evals + _RIDGE
        ridge_flag = True
    beta = evecs.T @ b
    lam_min = evals[0]

    def phi(nu):
        return float(np.sum((beta / (evals + nu)) ** 2))

    # interior solution: ||h^{-1} b|| <= 1 happens when the data pull is weak;
    # the sphere constraint is an equality here, so we still solve phi = 1 by
    # allowing nu < 0 down to -lam_min.
    lo = -lam_min + 1e-12 * max(lam_min, 1.0)
    hi = max(np.linalg.norm(b), lam_min, 1.0)
    while phi(hi) > 1.0:
        hi *= 2.0
        if hi > 1e18:
            break
    if phi(lo) < 1.0:
        # hard case: b nearly orthogonal to the bottom eigenvector; pad with it
        nu = -lam_min
        mask = evals > lam_min + 1e-12
        core = np.zeros(d)
        core[mask] = beta[mask] / (evals[mask] + nu)
        tau = np.sqrt(max(0.0, 1.0 - float(np.sum(core**2))))
        a = evecs @ core + tau * evecs[:, 0]
        return a / np.linalg.norm(a), ridge_flag
    from scipy.optimize import brentq

    nu = brentq(lambda t: phi(t) - 1.0, lo, hi, xtol=1e-14, rtol=1e-14)
    a = evecs @ (beta / (evals + nu))
    return a / np.linalg.norm(a), ridge_flag


def _expert_step_nonlinear(x, y, weights, a_init, activation, sigma2) -> np.ndarray:
    """Projected ascent of the weighted Gaussian log-likelihood
    -sum_s weights_s (y_s - g(x_s.a))^2 / (2 sigma2) on the unit sphere: along
    the tangent gradient g - (g.a)a, then normalised. Each point's x @ a and
    residual are kept for its gradient."""
    def evaluate(a):
        t = x @ a
        res = y - activation(t)
        return float(-0.5 * np.sum(weights * res**2) / sigma2), (t, res)

    def tangent_gradient(a, state):
        t, res = state
        grad = ((weights * res * activation(t, 1)) @ x) / sigma2
        return grad - (grad @ a) * a

    return ascend(np.array(a_init, dtype=float), evaluate, tangent_gradient,
                  lambda a: a / np.linalg.norm(a),
                  lambda a, grad, obj: np.linalg.norm(grad) <= _TANGENT_TOL * max(1.0, abs(obj)),
                  50)


def run_joint_em(x: np.ndarray, y: np.ndarray, k: int, sigma: float,
                 activation: Activation, radius: float = 1.0, seed=0,
                 eps: float = 1e-4, max_iters: int = 100,
                 a0: Optional[np.ndarray] = None,
                 w0: Optional[np.ndarray] = None) -> EmState:
    """Joint EM with random init: expert rows uniform on the sphere, gating
    rows uniform in the radius ball. a0/w0 override the initialization."""
    if k < 2:
        raise ConfigError("joint EM needs at least two experts")
    x = np.atleast_2d(x)
    # the gating steps read a column-major copy (see gating_em._logits); the
    # expert steps keep x's own order, which their products' bits depend on
    x_cols = np.asfortranarray(x)
    d = x.shape[1]
    rng = make_rng(seed)
    a = np.array(a0, dtype=float) if a0 is not None else rng.standard_normal((k, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    w = np.array(w0, dtype=float) if w0 is not None else random_gating_init(k, d, radius, rng)
    sigma2 = max(sigma**2, 1e-12)
    ridge = []

    def update(a, w, post):
        a_next = np.zeros_like(a)
        for i in range(k):
            p = post[:, i]
            if activation.name == "linear":
                a_next[i], flagged = _sphere_weighted_ls((x * p[:, None]).T @ x, (p * y) @ x)
                ridge.append(flagged)
            else:
                a_next[i] = _expert_step_nonlinear(x, y, p, a[i], activation, sigma2)
        return a_next, m_step(x_cols, post, w, radius)

    state = em_loop(x_cols, y, a, w, sigma, activation, eps, max_iters, update)
    state.ridge_flagged = any(ridge)
    return state
