"""Whitening and the robust tensor power method with deflation.

Pipeline: T2 (after correcting by the sign of c2) is eigendecomposed; the top-k
eigenpairs give a map W with W^T T2 W = I_k. The third-moment tensor contracted
into whitened coordinates, corrected by the sign of c3, is a k x k x k tensor
with an orthogonal rank-one decomposition whose eigenvectors are the whitened
regressor directions. Power iterations with random restarts extract them one at
a time with deflation; back-projection through the pseudo-inverse recovers the
regressors and the component weights |c3| E[p_i].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cqt import CqtCoefficients
from .errors import NumericalError
from .model import make_rng
from .scores import Sym3

# Eigenvalues of T2 at or below this share of the largest make it rank deficient.
RANK_RTOL = 1e-6
# Components whose eigenvalue falls below this share of the first are flagged weak.
NOISE_FLOOR_RTOL = 1e-6


@dataclass(frozen=True)
class WhiteningMap:
    w_map: np.ndarray                    # (d, k), w_map^T (sign * T2) w_map = I_k
    pseudo_inverse_transpose: np.ndarray  # (d, k) back-projection of whitened vectors
    eigenvalues: np.ndarray              # (k,) eigenvalues of sign-corrected T2, descending


def whiten(t2: np.ndarray, k: int, c2_sign: float = 1.0) -> WhiteningMap:
    """Whitening map from the top-k eigenpairs of sign-corrected T2.

    Raises NumericalError when fewer than k eigenvalues clear the rank
    threshold RANK_RTOL * lambda_max.
    """
    if k < 1:
        raise NumericalError("need at least one component")
    sign = 1.0 if c2_sign >= 0 else -1.0
    evals, evecs = np.linalg.eigh(sign * t2)
    order = np.argsort(-np.abs(evals), kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    lam_max = abs(evals[0]) if evals.size else 0.0
    top = evals[:k]
    if lam_max <= 0.0 or np.any(np.abs(top) <= RANK_RTOL * lam_max):
        raise NumericalError(
            "rank deficient: regressors not linearly independent or n too small "
            f"(top-{k} eigenvalues {np.array2string(top, precision=3)})")
    # a sampling-noise eigenvalue may come out negative; absorb its sign so the
    # whitened metric is positive
    mags = np.abs(top)
    u = evecs[:, :k]
    w_map = u / np.sqrt(mags)
    back = u * np.sqrt(mags)
    return WhiteningMap(w_map, back, mags.copy())


@dataclass
class PowerMethodResult:
    vectors: np.ndarray      # (k, m) rows: unit eigenvectors, descending eigenvalue
    eigenvalues: np.ndarray  # (k,)
    residuals: list          # per component ||T(I,v,v) - lambda v||, before its deflation
    restarts: int
    weak_flags: list         # components whose eigenvalue fell below the noise floor
    deflation_norms: list    # Frobenius norm of the tensor after each deflation


def _contract_ivv(unfolded: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(I, v, v) as the two matmuls numpy 2's optimize=True einsum runs for
    "abc,b,c->a" (its batch-matmul path): contract b on the (m, m*m)
    unfolding ``T.transpose(1, 0, 2).reshape(m, m*m)``, then c."""
    m = v.shape[0]
    return ((v.reshape(1, m) @ unfolded).reshape(m, m) @ v.reshape(m, 1)).reshape(m)


def power_method(t3: np.ndarray, n_components: int, restarts: int = 30,
                 iterations: int = 50, seed=0) -> PowerMethodResult:
    """Robust tensor power method on a dense symmetric tensor.

    For each component the best of ``restarts`` random starts (by eigenvalue
    after ``iterations`` fixed-point steps v <- T(I,v,v)/||.||) is polished
    with another round of iterations, then deflated. Restarts iterate as one
    batched matrix, one einsum call per step, so the per-seed result is
    deterministic. Each component's
    fixed-point residual ||T(I,v,v) - lambda v|| is taken on the tensor it
    was found in: near zero when the iteration converged to an eigenpair.
    """
    if restarts < 1 or iterations < 1:
        raise NumericalError("restarts and iterations must be >= 1")
    t = np.array(t3, dtype=float)
    m = t.shape[0]
    rng = make_rng(seed)
    vectors = np.zeros((n_components, m))
    eigenvalues = np.zeros(n_components)
    residuals, weak_flags, deflation_norms = [], [], []
    floor = None
    # The restart step and the restart eigenvalues call einsum directly, with
    # the operands in the order numpy's optimize=True planner puts them when
    # restarts > m >= 2 (then its plan is one contraction), so neither searches
    # a path. The polished vector's eigenvalue takes the planner's path,
    # searched once per call, as its order depends only on the shapes.
    vec = np.empty(m)
    path_vec_lam = np.einsum_path("abc,a,b,c->", t, vec, vec, vec, optimize=True)[0]

    for comp in range(n_components):
        theta = rng.standard_normal((restarts, m))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        for _ in range(iterations):
            theta = np.einsum("lc,lb,abc->la", theta, theta, t)
            # np.linalg.norm(theta, axis=1, keepdims=True), as it computes it
            nrm = np.sqrt((theta * theta).sum(axis=1, keepdims=True))
            nrm[nrm == 0] = 1.0
            theta /= nrm
        lam = np.einsum("lc,lb,la,abc->l", theta, theta, theta, t)
        best = int(np.argmax(lam))
        v = theta[best]
        unfolded = t.transpose(1, 0, 2).reshape(m, m * m)
        for _ in range(iterations):
            v_new = _contract_ivv(unfolded, v)
            nrm = np.sqrt(v_new.dot(v_new))   # np.linalg.norm(v_new), as it computes it
            if nrm == 0:
                break
            v = v_new / nrm
        lam_v = float(np.einsum("abc,a,b,c->", t, v, v, v, optimize=path_vec_lam))
        if lam_v < 0:   # canonicalize: odd tensor, flip vector to flip sign
            v, lam_v = -v, -lam_v
        if floor is None:
            floor = NOISE_FLOOR_RTOL * max(abs(lam_v), 1e-300)
        if lam_v < floor:
            warnings.warn(f"component {comp}: eigenvalue {lam_v:.3e} below noise floor",
                          RuntimeWarning)
            weak_flags.append(comp)
        vectors[comp] = v
        eigenvalues[comp] = lam_v
        residuals.append(float(np.linalg.norm(_contract_ivv(unfolded, v) - lam_v * v)))
        t = t - lam_v * np.einsum("a,b,c->abc", v, v, v)
        deflation_norms.append(float(np.linalg.norm(t)))

    order = np.argsort(-eigenvalues, kind="stable")
    position = {old: new for new, old in enumerate(order)}
    return PowerMethodResult(vectors[order], eigenvalues[order],
                             [residuals[i] for i in order], restarts,
                             sorted(position[i] for i in weak_flags),
                             deflation_norms)


@dataclass
class DecompositionResult:
    vectors: np.ndarray       # (k, d) unit-norm regressor estimates
    weights: np.ndarray       # (k,) positive scales |c3| E[p_i]
    power: PowerMethodResult  # the whitened tensor's decomposition

    def to_dict(self) -> dict:
        return {
            "regressors": self.vectors.tolist(),
            "weights": self.weights.tolist(),
            # Frobenius norm left after deflation (whitened space)
            "residual": self.power.deflation_norms[-1],
            "restarts": self.power.restarts,
            "residuals": self.power.residuals,
        }


def recover_regressors(t2: np.ndarray, t3: Sym3, k: int, cqt: CqtCoefficients,
                       seed=0) -> DecompositionResult:
    """Whiten, decompose, back-project: unit-norm regressor estimates from (T2, T3).

    Signs: both tensors are corrected by the signs of c2 and c3 so the whitened
    tensor has positive eigenvalues |c3| E[p_i] / (|c2| E[p_i])^{3/2}; each
    back-projected component then aligns with +a_i rather than -a_i.
    """
    d = t2.shape[0]
    if k > d:
        raise NumericalError(f"cannot recover k={k} components in dimension {d}")
    wm = whiten(t2, k, c2_sign=np.sign(cqt.c2))
    t3w = t3.contract_all_modes(wm.w_map) * np.sign(cqt.c3)
    pm = power_method(t3w, k, seed=seed)

    back = wm.pseudo_inverse_transpose
    vectors = np.zeros((k, d))
    weights = np.zeros(k)
    for i in range(k):
        b = back @ pm.vectors[i]
        nrm = np.linalg.norm(b)
        if nrm == 0:
            raise NumericalError(f"degenerate component {i}: zero back-projection")
        vectors[i] = b / nrm
        weights[i] = pm.eigenvalues[i] * nrm**3
    return DecompositionResult(vectors, weights, pm)
