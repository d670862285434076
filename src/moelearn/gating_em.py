"""EM over the gating parameters with the regressors held fixed.

E-step: posterior responsibilities p^(i) proportional to
softmax_i(w.x) N(y | g(<a_i,x>), sigma^2), computed in the log domain.
M-step: maximize the empirical surrogate
    Q(w) = (1/n) sum_s [ sum_i p_s^(i) <w_i, x_s> - log(1 + sum_i e^{<w_i, x_s>}) ]
over the product of row balls ||w_i|| <= R. Q is concave (a soft-label
multinomial logistic regression), solved by projected gradient ascent with
Armijo backtracking (m_step).

The gradient-EM variant replaces the inner maximization with a single
projected ascent step of size alpha <= 2 / (mu + lambda), where lambda and mu
are the strong-concavity and smoothness constants of the population surrogate;
both are Gaussian quadrature minimizations exposed by em_curvature_constants.

Both variants, and joint EM (joint_em), run em_loop and differ only in the
M-step they pass to it. em_loop never sees the truth: a caller that knows
it scores the recorded EmState.iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .activations import Activation, _sigmoid_d1, _sigmoid_d3
from .errors import ConfigError, NumericalError
from .model import ExpPass, exp_pass, logsumexp_rows, make_rng
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


def _logits(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (n, c) logits x @ w.T, as the transposed view of w @ x.T.

    Its (c, n) rows, the rows model.exp_pass works on, are contiguous, so
    the linear term can read each column as one. The EM runners and m_step
    pass a column-major x, whose transpose BLAS reads as contiguous (d, n)
    rows without repacking it. On OpenBLAS 0.3.31 (Haswell kernels, one
    thread) the result has the bits of x @ w.T on a C-ordered x at two or
    more gating rows when d <= 12 or n >= 1000 (n 1-8000, d 1-64 tried), so
    at the benchmark's k = 3 shapes. At one gating row (a matrix-vector
    product), or at d >= 16 with n <= 300, it sums in another order and
    moves by a few ulp.
    """
    return (w @ x.T).T


def e_step(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, w: np.ndarray,
           sigma: float, activation: Activation) -> EStepResult:
    """Responsibilities under the current gating iterate; log-domain throughout.

    The residuals and log-joint are (k, n) arrays, one contiguous row per
    expert, with each entry's arithmetic that of the (n, k) formulas.
    Overflow in the soft E-step is left to em_loop, which raises on the
    non-finite log-likelihood.
    """
    x = np.atleast_2d(x)
    n, k = x.shape[0], regressors.shape[0]
    res = y - activation(regressors @ x.T)   # bits and layout as in _logits
    if sigma == 0.0:
        # degenerate noise: hard assignment by residual magnitude
        z = np.argmin(np.abs(res), axis=0)
        post = np.zeros((n, k))
        post[np.arange(n), z] = 1.0
        return EStepResult(post, float("nan"), True)
    s2 = max(sigma**2, SIGMA2_FLOOR)
    logits = _logits(x, w)
    log_joint = np.empty((k, n))
    with np.errstate(over="ignore", invalid="ignore"):
        # log prior: the logits and the last, zero logit minus their log-sum-exp
        lse_prior = logsumexp_rows(logits, zero_column=True)
        np.subtract(logits.T, lse_prior, out=log_joint[:-1])
        np.subtract(0.0, lse_prior, out=log_joint[-1])
        log_joint -= 0.5 * res**2 / s2
        log_joint -= 0.5 * math.log(2 * math.pi * s2)
        lse = logsumexp_rows(log_joint.T)
        # the posteriors go to BLAS and einsum as a C-contiguous (n, k) array
        post = np.empty((n, k))
        for j, row in enumerate(log_joint):
            np.subtract(row, lse, out=post[:, j])
        np.exp(post, out=post)
    return EStepResult(post, float(lse.mean()), False)


def _linear_term(posteriors: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """sum_j posteriors[:, j] * logits[:, j] per row, the products added left
    to right; zeros when there are no gating rows.

    A row whose products are all zeros may sum to -0.0; q_value's ``.sum()``
    starts from +0.0, so Q does not see the sign.
    """
    rows = logits.T
    if len(rows) == 0:
        return np.zeros(len(logits))
    linear = posteriors[:, 0] * rows[0]
    for j in range(1, len(rows)):
        linear += posteriors[:, j] * rows[j]
    return linear


def q_value(x: np.ndarray, posteriors: np.ndarray, w: np.ndarray,
            logits: Optional[np.ndarray] = None, exps: Optional[ExpPass] = None) -> float:
    """Empirical EM surrogate Q(w | posteriors); ``logits`` is x @ w.T and
    ``exps`` its zero-column exp_pass, if known."""
    if logits is None:
        logits = _logits(x, w)
    if exps is None:
        exps = exp_pass(logits.T, zero_column=True)
    linear = _linear_term(posteriors, logits)
    lse = np.log(exps.s)
    lse += exps.m
    linear -= lse
    return float(linear.sum() / x.shape[0])


def q_gradient(x: np.ndarray, posteriors: np.ndarray, w: np.ndarray,
               exps: Optional[ExpPass] = None) -> np.ndarray:
    """(k-1, d) gradient of Q at w; ``exps`` as for q_value."""
    if exps is None:
        exps = exp_pass(_logits(x, w).T, zero_column=True)
    # posteriors[:, :c] minus the softmax probabilities e_j / s, one column
    # at a time: numpy runs arithmetic on strided (n, c) arrays this narrow
    # one row at a time; the zero column's probability is not needed
    diff = np.empty((x.shape[0], len(exps.e) - 1))
    for j, col in enumerate(diff.T):
        np.divide(exps.e[j], exps.s, out=col)
        np.subtract(posteriors[:, j], col, out=col)
    return diff.T @ x / x.shape[0]


def _row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean row norms, bitwise what ``np.linalg.norm(w, axis=1)`` gives
    for real input, without its dispatch."""
    return np.sqrt((w * w).sum(axis=1))


def project_rows(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the product of row balls of the given radius;
    ``w`` itself when every row is inside (a NaN norm is not)."""
    norms = _row_norms(w)[:, None]
    if np.all(norms <= radius):
        return w
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return w * scale


def _projected_gradient_norm(w: np.ndarray, grad: np.ndarray, radius: float) -> float:
    """Norm of grad less each on-ball row's outward part, with np.linalg.norm's bits."""
    norms = _row_norms(w)
    on_ball = np.flatnonzero(norms >= radius * (1 - 1e-12))
    pg = grad.copy() if len(on_ball) else grad
    for i in on_ball:
        radial = float(grad[i] @ w[i])
        if radial > 0:   # outward component is blocked by the constraint
            pg[i] = grad[i] - (radial / max(norms[i] ** 2, 1e-300)) * w[i]
    return math.sqrt(pg.ravel().dot(pg.ravel()))


def m_step(x: np.ndarray, posteriors: np.ndarray, w_init: np.ndarray,
           radius: float) -> np.ndarray:
    """Maximize Q over the row-ball domain on a column-major x by projected
    gradient ascent with Armijo backtracking (c = 1e-4), the step warm-started,
    doubled up to 1e6 and halved while above 1e-16. Stops at a projected
    gradient of 1e-7, on a failed search or after 500 steps; returns the last
    accepted candidate object itself."""
    x = np.ascontiguousarray(x.T).T

    def evaluate(w):
        # each point's logits and exp pass are computed once, for its Q and gradient
        logits = _logits(x, w)
        exps = exp_pass(logits.T, zero_column=True)
        return q_value(x, posteriors, w, logits=logits, exps=exps), exps

    w = project_rows(np.array(w_init, dtype=float), radius)
    q, exps = evaluate(w)
    step = 1.0
    for _ in range(500):
        grad = q_gradient(x, posteriors, w, exps=exps)
        if _projected_gradient_norm(w, grad, radius) <= 1e-7:
            break
        step = min(step * 2.0, 1e6)
        while step > 1e-16:
            cand = project_rows(w + step * grad, radius)
            cand_q, cand_exps = evaluate(cand)
            if cand_q >= q + 1e-4 * float((grad * (cand - w)).sum()):
                w, q, exps = cand, cand_q, cand_exps
                break
            step *= 0.5
        else:
            break
    return w


@dataclass
class TraceRow:
    iteration: int
    step_norm: float
    q_value: float
    loglik: float


@dataclass
class EmState:
    a: np.ndarray                # (k, d) regressors: fixed in gating EM, fitted in joint EM
    w: np.ndarray                # (k-1, d) gating iterate
    trace: list = field(default_factory=list)
    converged: bool = False
    hard_assignment: bool = False
    ridge_flagged: bool = False   # joint EM's linear expert step needed a ridge
    final_loglik: float = float("nan")
    iterates: list = field(default_factory=list)   # (a, w) after each outer step

    def loglik_sequence(self) -> list:
        """Observed-data log-likelihood at every iterate, the start included."""
        return [row.loglik for row in self.trace] + [self.final_loglik]


def row_metric(w_a: np.ndarray, w_b: np.ndarray) -> float:
    """max_i ||w_a_i - w_b_i||_2, em_loop's step norm between iterates."""
    if w_a.size == 0:
        return 0.0
    return float(np.max(_row_norms(w_a - w_b)))


def random_gating_init(k: int, d: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Rows uniform in the radius ball."""
    u = rng.standard_normal((k - 1, d))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random((k - 1, 1)) ** (1.0 / d)
    return u / norms * r


def _finite_loglik(est: EStepResult, iteration: int) -> EStepResult:
    if not (est.hard_assignment or math.isfinite(est.loglik)):
        raise NumericalError(f"EM iteration {iteration}: the E-step log-likelihood is "
                             f"{est.loglik} (a label too large for the noise level?)")
    return est


def em_loop(x, y, a, w, sigma, activation, eps, max_iters, update) -> EmState:
    """Alternate the E-step with ``update(a, w, posteriors) -> (a, w)`` until
    the stacked (a, w) rows move less than eps.

    A non-finite Q, or a non-finite log-likelihood from a soft E-step, raises
    NumericalError: the M-step cannot move on NaN posteriors, so the zero
    step would otherwise read as convergence. A hard-assignment E-step
    (sigma = 0) reports a NaN log-likelihood by design.
    """
    state = EmState(a=a, w=w)
    for t in range(max_iters):
        est = _finite_loglik(e_step(x, y, a, w, sigma, activation), t + 1)
        state.hard_assignment = state.hard_assignment or est.hard_assignment
        a_next, w_next = update(a, w, est.posteriors)
        # one row_metric over both parts: np.max keeps a NaN row, which
        # Python's max(0.3, nan) would drop and so call converged
        step = row_metric(np.vstack([a_next, w_next]), np.vstack([a, w]))
        row = TraceRow(iteration=t + 1, step_norm=step,
                       q_value=q_value(x, est.posteriors, w_next), loglik=est.loglik)
        if not math.isfinite(row.q_value):
            raise NumericalError(f"EM iteration {t + 1}: Q is {row.q_value} after the M-step")
        state.trace.append(row)
        state.iterates.append((a_next.copy(), w_next.copy()))
        a, w = a_next, w_next
        if step < eps:
            state.converged = True
            break
    state.a, state.w = a, w
    state.final_loglik = _finite_loglik(e_step(x, y, a, w, sigma, activation),
                                        len(state.trace) + 1).loglik
    return state


def _gating_start(regressors, radius, seed, w0) -> np.ndarray:
    k, d = regressors.shape
    w = np.array(w0, dtype=float) if w0 is not None else random_gating_init(
        k, d, radius, make_rng(seed))
    return project_rows(w.reshape(k - 1, d), radius)


def run_em(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, sigma: float,
           activation: Activation, radius: float = 1.0, eps: float = 1e-4,
           max_iters: int = 100, seed=0, w0: Optional[np.ndarray] = None) -> EmState:
    """Alternate E and M steps until the iterate moves less than eps."""
    x = np.asfortranarray(np.atleast_2d(x))   # column-major: see _logits

    def update(a, w, posteriors):
        return a, m_step(x, posteriors, w, radius)

    return em_loop(x, y, regressors, _gating_start(regressors, radius, seed, w0),
                   sigma, activation, eps, max_iters, update)


def run_gradient_em(x: np.ndarray, y: np.ndarray, regressors: np.ndarray, sigma: float,
                    activation: Activation, radius: float = 1.0,
                    step_alpha: Optional[float] = None, eps: float = 1e-4,
                    max_iters: int = 100, seed=0, w0: Optional[np.ndarray] = None) -> EmState:
    """Generalized EM: one projected ascent step on Q per outer iteration."""
    x = np.asfortranarray(np.atleast_2d(x))   # column-major: see _logits
    alpha_max = default_gradient_step()
    alpha = alpha_max if step_alpha is None else float(step_alpha)
    if not 0 <= alpha <= alpha_max * (1 + 1e-9):   # NaN fails too
        raise ConfigError(f"step size must lie in [0, {alpha_max:.4f}], got {alpha}")

    def update(a, w, posteriors):
        return a, project_rows(w + alpha * q_gradient(x, posteriors, w), radius)

    return em_loop(x, y, regressors, _gating_start(regressors, radius, seed, w0),
                   sigma, activation, eps, max_iters, update)


# ---------------------------------------------------------------------------
# curvature constants of the population surrogate (sigmoid gating)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def em_curvature_constants() -> tuple[float, float]:
    """(lambda, mu): extremal eigenvalues of E[f'(w.x) x x^T] over ||w|| <= 1.

    By Stein's identity the matrix equals E[f'''(aZ)] w w^T + E[f'(aZ)] I with
    a = ||w||, so its eigenvalues are m1(a) and m1(a) + a^2 m3(a); lambda is
    the infimum of the smaller one over a in [0, 1] and mu the supremum of the
    larger one, on a 4001-point grid of a with 120-node Gauss-Hermite
    quadrature. f is the sigmoid.
    """
    z, wq = gauss_hermite(120)
    a = np.linspace(0.0, 1.0, 4001)
    t = np.outer(a, z)
    f1 = _sigmoid_d1(t) @ wq
    f3 = _sigmoid_d3(t) @ wq
    low = np.minimum(f1, f1 + a**2 * f3)
    high = np.maximum(f1, f1 + a**2 * f3)
    return float(low.min()), float(high.max())
