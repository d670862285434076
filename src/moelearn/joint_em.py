"""Classical joint EM over regressors and gating, from random initialization.

The baseline that gets stuck in local optima. E-step as in gating-only EM;
M-step updates each expert by weighted least squares on the unit sphere
(_sphere_weighted_ls, its secular equation solved by Newton's method in
_secular_root): exact for linear experts, Gauss-Newton steps for nonlinear
ones; then the gating rows (m_step). No expert update lowers its Q-term on
the sphere, so the observed-data log-likelihood is nondecreasing. The outer
loop is gating_em.em_loop.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError, NumericalError
from .gating_em import EmState, em_loop, m_step, random_gating_init
from .model import make_rng

_RIDGE = 1e-8
_TANGENT_TOL = 1e-6   # the expert step's stop, relative to max(1, |objective|)


def _not_finite(nu: float) -> NumericalError:
    return NumericalError(f"sphere solve: the secular equation is not finite at nu={nu!r}")


def _secular_root(evals: np.ndarray, beta: np.ndarray, nu: float) -> float:
    """The root of psi(nu) = 1/||beta/(evals+nu)|| - 1 by Newton's method (Moré
    and Sorensen 1983) from nu, at or left of it: psi is concave and increasing
    on (-evals.min(), inf), so the steps rise to the root. Stops once a step is
    at most 1e-14 max(1, |nu|); a non-finite psi or 100 steps is NumericalError."""
    for _ in range(100):
        q = beta / (evals + nu)
        p2 = float(q @ q)
        if not np.isfinite(p2):
            raise _not_finite(nu)
        step = p2 * (math.sqrt(p2) - 1.0) / float(q @ (q / (evals + nu)))
        if not step > 1e-14 * max(1.0, abs(nu)):
            return nu
        nu += step
    raise NumericalError("sphere solve: no root of the secular equation in 100 steps")


def _sphere_weighted_ls(h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """argmin_{||a||=1} a^T h a - 2 b^T a, via the secular equation.

    Returns (a, ridge_flag). Stationarity gives
    (h + nu I) a = b with nu >= -lambda_min; phi(nu) = ||a(nu)||^2 decreases in
    nu, so the feasible nu solves phi(nu) = 1, which _secular_root finds by
    Newton's method from just above -lambda_min. Where phi is already below 1
    there (the hard case), nu = -lambda_min and a is padded with the bottom
    eigenvector.
    """
    ridge_flag = False
    evals, evecs = np.linalg.eigh(h)
    if evals[-1] <= 0 or evals[0] < _RIDGE * max(evals[-1], 1.0):
        evals = evals + _RIDGE
        ridge_flag = True
    lam_min = evals[0]
    # the sphere constraint is an equality, so nu may lie below 0, down to -lam_min
    lo = float(-lam_min + 1e-12 * max(lam_min, 1.0))
    # non-finite input, or lo rounded onto the pole at -lam_min, fails here
    # rather than after the products and divisions below have warned
    if not (np.isfinite(b).all() and np.all(evals + lo > 0)):
        raise _not_finite(lo)
    beta = evecs.T @ b
    if np.sum((beta / (evals + lo)) ** 2) < 1.0:
        # hard case: b nearly orthogonal to the bottom eigenvector; pad with it
        nu = -lam_min
        mask = evals > lam_min + 1e-12
        core = np.zeros_like(beta)
        core[mask] = beta[mask] / (evals[mask] + nu)
        tau = np.sqrt(max(0.0, 1.0 - float(np.sum(core**2))))
        a = evecs @ core + tau * evecs[:, 0]
        return a / np.linalg.norm(a), ridge_flag
    nu = _secular_root(evals, beta, lo)
    a = evecs @ (beta / (evals + nu))
    return a / np.linalg.norm(a), ridge_flag


def _expert_step_nonlinear(x, y, weights, a_init, activation, sigma2) -> np.ndarray:
    """Gauss-Newton ascent of -sum_s weights_s (y_s - g(x_s.a))^2 / (2 sigma2)
    on the unit sphere: each step solves the model linearised at a on the
    sphere (_sphere_weighted_ls) and takes the first point of the chord to
    that target, halved from 1 down to 1e-10 and renormalised, that strictly
    raises the objective. Stops at a tangent gradient within _TANGENT_TOL of
    max(1, |objective|), when no chord point rises (ReLU at a kink), or after
    50 steps."""
    def evaluate(a):
        t = x @ a
        res = y - activation(t)
        return float(-0.5 * np.sum(weights * res**2) / sigma2), t, res

    a = np.array(a_init, dtype=float)
    value, t, res = evaluate(a)
    for _ in range(50):
        slope = activation(t, 1)
        grad = ((weights * res * slope) @ x) / sigma2
        if np.linalg.norm(grad - (grad @ a) * a) <= _TANGENT_TOL * max(1.0, abs(value)):
            break
        ws = weights * slope
        target, _ = _sphere_weighted_ls((x * (ws * slope)[:, None]).T @ x,
                                        (ws * (res + slope * t)) @ x)
        s = 1.0
        while s >= 1e-10:
            cand = a + s * (target - a)
            norm = np.linalg.norm(cand)
            if norm > 0:
                cand /= norm
                cand_value, cand_t, cand_res = evaluate(cand)
                if cand_value > value:
                    a, value, t, res = cand, cand_value, cand_t, cand_res
                    break
            s *= 0.5
        else:
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
