"""EM over the gating parameters with the regressors held fixed.

E-step: posterior responsibilities p^(i) proportional to
softmax_i(w.x) N(y | g(<a_i,x>), sigma^2), computed in the log domain.
M-step: maximize the empirical surrogate
    Q(w) = (1/n) sum_s [ sum_i p_s^(i) <w_i, x_s> - log(1 + sum_i e^{<w_i, x_s>}) ]
over the product of row balls ||w_i|| <= R. Q is concave (a soft-label
multinomial logistic regression), solved by projected gradient ascent with
Armijo backtracking.

The gradient-EM variant replaces the inner maximization with a single
projected ascent step of size alpha <= 2 / (mu + lambda), where lambda and mu
are the strong-concavity and smoothness constants of the population surrogate;
both are Gaussian quadrature minimizations exposed by em_curvature_constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError
from .model import logsumexp_rows, make_rng, softmax_rows
from .cqt import gauss_hermite

SIGMA2_FLOOR = 1e-12

# Population surrogate curvature constants for sigmoid gating (recomputed by
# em_curvature_constants; these are the documented defaults).
DEFAULT_STRONG_CONCAVITY = 0.1442   # lambda
DEFAULT_SMOOTHNESS = 0.25           # mu


def default_gradient_step() -> float:
    """The step size 2 / (mu + lambda) used by gradient EM."""
    return 2.0 / (DEFAULT_SMOOTHNESS + DEFAULT_STRONG_CONCAVITY)


class EStepResult(NamedTuple):
    posteriors: np.ndarray   # (n, k), rows sum to 1
    loglik: float            # observed-data mean log-likelihood at this w
    hard_assignment: bool


def e_step(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, w: np.ndarray,
           sigma: float, activation: Activation) -> EStepResult:
    """Responsibilities under the current gating iterate; log-domain throughout."""
    x = np.atleast_2d(x)
    k = regressors.shape[0]
    res = y[:, None] - activation(x @ regressors.T)
    logits = x @ w.T if k > 1 else np.zeros((x.shape[0], 0))
    if k == 1:
        return EStepResult(np.ones((x.shape[0], 1)), float(np.mean(
            -0.5 * res[:, 0] ** 2 / max(sigma**2, SIGMA2_FLOOR)
            - 0.5 * math.log(2 * math.pi * max(sigma**2, SIGMA2_FLOOR)))), sigma == 0.0)
    if sigma == 0.0:
        # degenerate noise: hard assignment by residual magnitude
        z = np.argmin(np.abs(res), axis=1)
        post = np.zeros((x.shape[0], k))
        post[np.arange(x.shape[0]), z] = 1.0
        return EStepResult(post, float("nan"), True)
    s2 = max(sigma**2, SIGMA2_FLOOR)
    full_logits = np.hstack([logits, np.zeros((x.shape[0], 1))])
    log_prior = full_logits - logsumexp_rows(logits, zero_column=True)[:, None]
    log_joint = log_prior - 0.5 * res**2 / s2 - 0.5 * math.log(2 * math.pi * s2)
    lse = logsumexp_rows(log_joint)
    post = np.exp(log_joint - lse[:, None])
    return EStepResult(post, float(lse.mean()), False)


def q_value(x: np.ndarray, posteriors: np.ndarray, w: np.ndarray) -> float:
    """Empirical EM surrogate Q(w | posteriors)."""
    logits = x @ w.T
    linear = np.einsum("ni,ni->n", posteriors[:, :-1], logits)
    return float(np.mean(linear - logsumexp_rows(logits, zero_column=True)))


def q_gradient(x: np.ndarray, posteriors: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(k-1, d) gradient of Q at w."""
    probs = softmax_rows(x @ w.T, zero_column=True)
    return (posteriors[:, :-1] - probs[:, :-1]).T @ x / x.shape[0]


def project_rows(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the product of row balls of the given radius."""
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return w * scale


def _projected_gradient_norm(w: np.ndarray, grad: np.ndarray, radius: float) -> float:
    pg = grad.copy()
    norms = np.linalg.norm(w, axis=1)
    for i in np.flatnonzero(norms >= radius * (1 - 1e-12)):
        radial = float(grad[i] @ w[i])
        if radial > 0:   # outward component is blocked by the constraint
            pg[i] = grad[i] - (radial / max(norms[i] ** 2, 1e-300)) * w[i]
    return float(np.linalg.norm(pg))


def m_step(x: np.ndarray, posteriors: np.ndarray, w_init: np.ndarray, radius: float,
           grad_tol: float = 1e-7, max_inner: int = 500,
           armijo_c: float = 1e-4, shrink: float = 0.5) -> np.ndarray:
    """Maximize Q over the row-ball domain by projected gradient ascent."""
    w = project_rows(np.array(w_init, dtype=float), radius)
    if w.size == 0:
        return w
    q = q_value(x, posteriors, w)
    step = 1.0
    for _ in range(max_inner):
        grad = q_gradient(x, posteriors, w)
        if _projected_gradient_norm(w, grad, radius) <= grad_tol:
            break
        step = min(step * 2.0, 1e6)   # warm-started, grown before backtracking
        accepted = False
        while step > 1e-16:
            cand = project_rows(w + step * grad, radius)
            q_cand = q_value(x, posteriors, cand)
            if q_cand >= q + armijo_c * float(np.sum(grad * (cand - w))):
                w, q, accepted = cand, q_cand, True
                break
            step *= shrink
        if not accepted:
            break
    return w


@dataclass
class TraceRow:
    iteration: int
    step_norm: float
    q_value: float
    loglik: float
    dist_to_truth: float = float("nan")


@dataclass
class GatingState:
    w: np.ndarray                # (k-1, d) final iterate
    posteriors: np.ndarray       # (n, k) at the final iterate
    trace: list = field(default_factory=list)
    radius: float = 1.0
    converged: bool = False
    hard_assignment: bool = False
    final_loglik: float = float("nan")
    initial_distance: float = float("nan")
    w0: Optional[np.ndarray] = None
    iterates: list = field(default_factory=list)   # w after each outer step

    def loglik_sequence(self) -> list:
        """Observed-data log-likelihood at w_0, w_1, ..., w_T."""
        return [row.loglik for row in self.trace] + [self.final_loglik]


def row_metric(w_a: np.ndarray, w_b: np.ndarray) -> float:
    """max_i ||w_a_i - w_b_i||_2, the gating-parameter error metric."""
    if w_a.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(w_a - w_b, axis=1)))


def random_gating_init(k: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Rows uniform in the radius ball."""
    u = rng.standard_normal((k - 1, d))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random((k - 1, 1)) ** (1.0 / d)
    return u / norms * r


def _run(x, y, regressors, sigma, activation, radius, eps, max_iters, seed,
         w0, truth, update):
    k, d = regressors.shape
    rng = make_rng(seed)
    w = np.array(w0, dtype=float) if w0 is not None else random_gating_init(k, d, radius, rng)
    w = project_rows(w.reshape(k - 1, d), radius)
    state = GatingState(w=w, posteriors=np.zeros((x.shape[0], k)), radius=radius,
                        w0=w.copy())
    if truth is not None:
        state.initial_distance = row_metric(w, truth)
    converged = False
    for t in range(max_iters):
        est = e_step(x, y, regressors, w, sigma, activation)
        state.hard_assignment = state.hard_assignment or est.hard_assignment
        w_next = update(w, est.posteriors)
        step = row_metric(w_next, w)
        row = TraceRow(iteration=t + 1, step_norm=step,
                       q_value=q_value(x, est.posteriors, w_next), loglik=est.loglik)
        if truth is not None:
            row.dist_to_truth = row_metric(w_next, truth)
        state.trace.append(row)
        state.iterates.append(w_next.copy())
        w = w_next
        if step < eps:
            converged = True
            break
    final = e_step(x, y, regressors, w, sigma, activation)
    state.w = w
    state.posteriors = final.posteriors
    state.final_loglik = final.loglik
    state.converged = converged
    return state


def run_em(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, sigma: float,
           activation: Activation, radius: float = 1.0, eps: float = 1e-4,
           max_iters: int = 100, seed=0, w0: Optional[np.ndarray] = None,
           truth: Optional[np.ndarray] = None,
           m_step_tol: float = 1e-7, m_step_max_inner: int = 500) -> GatingState:
    """Alternate E and M steps until the iterate moves less than eps."""
    x = np.atleast_2d(x)

    def update(w, posteriors):
        return m_step(x, posteriors, w, radius, grad_tol=m_step_tol,
                      max_inner=m_step_max_inner)

    return _run(x, y, regressors, sigma, activation, radius, eps, max_iters,
                seed, w0, truth, update)


def run_gradient_em(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, sigma: float,
                    activation: Activation, radius: float = 1.0,
                    step_alpha: Optional[float] = None, eps: float = 1e-4,
                    max_iters: int = 100, seed=0, w0: Optional[np.ndarray] = None,
                    truth: Optional[np.ndarray] = None) -> GatingState:
    """Generalized EM: one projected ascent step on Q per outer iteration."""
    x = np.atleast_2d(x)
    alpha_max = default_gradient_step()
    alpha = alpha_max if step_alpha is None else float(step_alpha)
    if alpha < 0 or alpha > alpha_max * (1 + 1e-9):
        raise ConfigError(f"step size must lie in (0, {alpha_max:.4f}], got {alpha}")

    def update(w, posteriors):
        return project_rows(w + alpha * q_gradient(x, posteriors, w), radius)

    return _run(x, y, regressors, sigma, activation, radius, eps, max_iters,
                seed, w0, truth, update)


# ---------------------------------------------------------------------------
# curvature constants of the population surrogate (sigmoid gating)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def em_curvature_constants(grid: int = 4001, order: int = 120) -> tuple[float, float]:
    """(lambda, mu): extremal eigenvalues of E[f'(w.x) x x^T] over ||w|| <= 1.

    By Stein's identity the matrix equals E[f'''(aZ)] w w^T + E[f'(aZ)] I with
    a = ||w||, so its eigenvalues are m1(a) and m1(a) + a^2 m3(a); lambda is
    the infimum of the smaller one over a in [0, 1] and mu the supremum of the
    larger one. f is the sigmoid.
    """
    z, wq = gauss_hermite(order)
    a = np.linspace(0.0, 1.0, grid)
    t = np.outer(a, z)
    s = 1.0 / (1.0 + np.exp(-t))
    sp = s * (1 - s)
    f1 = sp @ wq
    f3 = (sp * (1 - 2 * s) ** 2 - 2 * sp**2) @ wq
    low = np.minimum(f1, f1 + a**2 * f3)
    high = np.maximum(f1, f1 + a**2 * f3)
    return float(low.min()), float(high.max())
