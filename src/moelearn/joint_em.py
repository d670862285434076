"""Classical joint EM over regressors and gating, from random initialization.

This is the baseline that gets stuck in local optima. E-step as in the
gating-only EM; M-step updates the experts (responsibility-weighted least
squares constrained to the unit sphere for linear experts, normalized
backtracking ascent for nonlinear ones) and then the gating rows with the same
projected-gradient solver. The expert update maximizes its Q-term over the
unit sphere, so the observed-data log-likelihood is nondecreasing. The outer
loop is gating_em.em_loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError
from .gating_em import EmState, em_loop, m_step, random_gating_init
from .model import make_rng

_RIDGE = 1e-8


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


def _expert_objective(x, y, weights, a, activation, sigma2):
    res = y - activation(x @ a)
    return float(-0.5 * np.sum(weights * res**2) / sigma2)


def _expert_step_nonlinear(x, y, weights, a_init, activation, sigma2,
                           max_inner: int = 50) -> np.ndarray:
    """Backtracking ascent on the weighted Gaussian log-likelihood, evaluated
    at the normalized candidate so every accepted step improves the objective."""
    a = np.array(a_init, dtype=float)
    obj = _expert_objective(x, y, weights, a, activation, sigma2)
    step = 1.0
    for _ in range(max_inner):
        t = x @ a
        grad = ((weights * (y - activation(t)) * activation(t, 1)) @ x) / sigma2
        gnorm = np.linalg.norm(grad)
        if gnorm <= 1e-9 * max(1.0, abs(obj)):
            break
        step = min(step * 2.0, 1e6)
        accepted = False
        while step > 1e-16:
            cand = a + step * grad
            nrm = np.linalg.norm(cand)
            if nrm > 0:
                cand = cand / nrm
                cand_obj = _expert_objective(x, y, weights, cand, activation, sigma2)
                if cand_obj > obj:
                    a, obj, accepted = cand, cand_obj, True
                    break
            step *= 0.5
        if not accepted:
            break
    return a


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
        return a_next, m_step(x, post, w, radius)

    state = em_loop(x, y, a, w, sigma, activation, eps, max_iters, update)
    state.ridge_flagged = any(ridge)
    return state
