"""Permutation-matched evaluation metrics and the fit report.

RegressorFit: max over permutations of the minimum |<a_hat_pi(i), a*_i>| on
unit-normalized rows. GatingFit: |<w_hat, w*>| on unit vectors. E(A, W)
(param_error_min_gauge): the sum of the two Frobenius errors, minimized over
the estimate's softmax gauges and over permutations, one coupling both
matrices, with the gating matrices padded by an explicit zero row.
Permutations are enumerated for k <= 8; larger k falls back to Hungarian
max-sum matching, which approximates the bottleneck objective and is flagged.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model import RNG_NAME

BRUTE_FORCE_LIMIT = 8


@lru_cache(maxsize=None)
def _permutations(k: int) -> tuple:
    return tuple(itertools.permutations(range(k)))


def _unit_rows(m: np.ndarray) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def regressor_fit(est: np.ndarray, truth: np.ndarray) -> tuple[float, tuple, bool]:
    """(fit, permutation, exact) with est row pi(i) matched to truth row i."""
    est = _unit_rows(est)
    truth = _unit_rows(truth)
    if est.shape != truth.shape:
        raise ConfigError(f"shape mismatch: {est.shape} vs {truth.shape}")
    k = est.shape[0]
    cos = np.abs(est @ truth.T)   # cos[p, i] = |<est_p, truth_i>|
    if k <= BRUTE_FORCE_LIMIT:
        best, best_pi = -1.0, None
        for pi in _permutations(k):
            val = min(cos[pi[i], i] for i in range(k))
            if val > best:
                best, best_pi = val, pi
        return float(best), tuple(best_pi), True
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-cos)   # max-sum approximation, flagged
    pi = [0] * k
    for p, i in zip(rows, cols):
        pi[i] = int(p)
    return float(min(cos[pi[i], i] for i in range(k))), tuple(pi), False


def gating_fit(est_w: np.ndarray, truth_w: np.ndarray) -> float:
    """Absolute cosine similarity of unit-normalized gating vectors.

    Returns NaN when the truth is the zero vector (fit undefined).
    """
    est_w = np.asarray(est_w, dtype=float).ravel()
    truth_w = np.asarray(truth_w, dtype=float).ravel()
    tn = np.linalg.norm(truth_w)
    if tn == 0:
        return float("nan")
    en = np.linalg.norm(est_w)
    if en == 0:
        return 0.0
    return float(abs(est_w @ truth_w) / (en * tn))


def _pad_gating(w: np.ndarray, k: int, d: int) -> np.ndarray:
    w = np.atleast_2d(np.asarray(w, dtype=float)) if np.size(w) else np.zeros((0, d))
    if w.shape == (k, d):
        return w
    if w.shape == (k - 1, d):
        return np.vstack([w, np.zeros((1, d))])
    raise ConfigError(f"gating matrix must be ({k - 1}, {d}) or ({k}, {d}), got {w.shape}")


def param_error_min_gauge(a_est: np.ndarray, w_est: np.ndarray,
                          a_true: np.ndarray, w_true: np.ndarray) -> tuple[float, tuple]:
    """E(A, W) = inf_pi ||A - A*_pi||_F + ||W - W*_pi||_F, one permutation pi
    coupling both terms, scored against the best gauge representative W of
    the estimate.

    Softmax probabilities do not change when one row is subtracted from all
    rows, so a gating estimate is only defined up to that gauge (which expert
    carries the zero row); the parameter error of the estimated model is the
    minimum over its k representatives. Ties go to the first gauge, then the
    first permutation, that attains the minimum. Each permutation's regressor
    term is computed once for all gauges.
    """
    a_est = np.atleast_2d(np.asarray(a_est, dtype=float))
    w = _pad_gating(w_est, *a_est.shape)
    a_true = np.atleast_2d(np.asarray(a_true, dtype=float))
    if a_est.shape != a_true.shape:
        raise ConfigError(f"shape mismatch: {a_est.shape} vs {a_true.shape}")
    k, d = a_est.shape
    w_true = _pad_gating(w_true, k, d)
    perms = _permutations(k) if k <= BRUTE_FORCE_LIMIT else None
    errors_a, best, best_pi = {}, float("inf"), None
    for row in w:
        gauge = w - row
        for pi in perms or [_hungarian(a_est, gauge, a_true, w_true)]:
            if pi not in errors_a:
                errors_a[pi] = _frobenius(a_est - a_true.take(pi, axis=0))
            err = errors_a[pi] + _frobenius(gauge - w_true.take(pi, axis=0))
            if err < best:
                best, best_pi = err, pi
    return float(best), best_pi


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm, bitwise what ``np.linalg.norm(m, "fro")`` gives for a
    real matrix, without its dispatch."""
    v = m.ravel(order="K")
    return math.sqrt(v.dot(v))


def _hungarian(a_est, w_est, a_true, w_true) -> tuple:
    """The permutation linear_sum_assignment finds on summed squared costs,
    which approximates the coupled objective."""
    from scipy.optimize import linear_sum_assignment

    cost = (np.linalg.norm(a_est[:, None, :] - a_true[None, :, :], axis=2) ** 2
            + np.linalg.norm(w_est[:, None, :] - w_true[None, :, :], axis=2) ** 2)
    return tuple(int(c) for c in linear_sum_assignment(cost)[1])   # rows come as 0..k-1


def gating_fit_rows(w_est: np.ndarray, w_true: np.ndarray, permutation: tuple) -> float:
    """Min-over-rows gating fit, after the regressor-matched permutation.

    Both matrices are (k-1, d) with the k-th row implicitly zero, or (k, d).
    The estimate is re-gauged so the row matched to the truth's last row is
    zero, then each other row is scored by absolute cosine. Convention for
    reporting only. At k = 2 the one scored row is +-(w_0 - w_1), so this is
    gating_fit of the estimate's row difference, to the bit.
    """
    k, d = len(permutation), np.shape(w_true)[-1]
    w_est = _pad_gating(w_est, k, d)
    w_true = _pad_gating(w_true, k, d)
    aligned = w_est[list(permutation)]   # aligned[i] pairs with w_true row i
    aligned = aligned - aligned[-1]      # pin the row matched to the last row
    fits = []
    for i in range(k - 1):
        f = gating_fit(aligned[i], w_true[i])
        if not np.isnan(f):
            fits.append(f)
    return float(min(fits)) if fits else float("nan")


# ---------------------------------------------------------------------------
# fit report
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


# settings that decide where and how fast a result is written, not the result
UNHASHED_SETTINGS = ("out", "threads")


def config_hash(config: dict) -> str:
    """Hash of every setting except UNHASHED_SETTINGS."""
    kept = {key: value for key, value in config.items() if key not in UNHASHED_SETTINGS}
    canon = json.dumps(kept, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class FitReport:
    config: dict
    regressor_fit: float = float("nan")
    gating_fit: float = float("nan")
    param_error: float = float("nan")
    matched_permutation: Optional[tuple] = None
    permutation_exact: bool = True
    cqt: Optional[dict] = None
    decomposition: Optional[dict] = None
    traces: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    rng: str = RNG_NAME
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {**asdict(self), "config_hash": config_hash(self.config)}

    def to_json(self, path: Optional[str | Path] = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def write_csv(path: str | Path, header: list, rows: list[list]) -> None:
    """A header row, then ``rows``, as the csv module quotes them."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: str | Path, trace: list) -> None:
    """Per-iteration trace: iter, step_norm, q_value, loglik."""
    write_csv(path, ["iter", "step_norm", "q_value", "loglik"],
              [[row.iteration, f"{row.step_norm:.10g}", f"{row.q_value:.10g}",
                f"{row.loglik:.10g}"] for row in trace])
