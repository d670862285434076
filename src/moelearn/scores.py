"""Second and third order score tensors for Gaussian and Gaussian-mixture inputs.

For an input density p, the order-m score is S_m(x) = (-1)^m grad^m p(x) / p(x).
For the standard Gaussian these are the Hermite tensors
    S2(x) = x x^T - I,
    S3(x)_{jkl} = x_j x_k x_l - x_j d_{kl} - x_k d_{jl} - x_l d_{jk},
and for an identity-covariance mixture they are responsibility-weighted sums of
the same tensors evaluated at x - mu_c.

Symmetric tensors are stored packed: sorted index tuples only, with
multiplicities used for norms and contractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .model import InputDistribution, softmax_rows


@lru_cache(maxsize=None)
def packed_indices(d: int, order: int):
    """Sorted index tuples, their multiplicities, and S3 correction bookkeeping.

    Returns (idx, mult) where idx is an (order, P) int array of sorted tuples
    in lexicographic order and mult[p] is the number of distinct permutations.
    """
    tuples = np.array(list(itertools.combinations_with_replacement(range(d), order)), dtype=np.intp).T
    tuples = tuples.reshape(order, -1)
    if order == 2:
        mult = np.where(tuples[0] == tuples[1], 1, 2).astype(float)
    else:
        i, j, l = tuples
        mult = np.full(tuples.shape[1], 6.0)
        two_equal = (i == j) ^ (j == l)
        mult[two_equal] = 3.0
        mult[(i == j) & (j == l)] = 1.0
    return tuples, mult


def packed_size(d: int, order: int) -> int:
    return d * (d + 1) // 2 if order == 2 else d * (d + 1) * (d + 2) // 6


@dataclass(frozen=True)
class Sym2:
    """Dense symmetric d x d tensor in packed upper-triangular storage."""

    d: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float).ravel())
        if self.data.shape[0] != packed_size(self.d, 2):
            raise ConfigError("packed Sym2 buffer has the wrong length")

    @classmethod
    def zeros(cls, d: int) -> "Sym2":
        return cls(d, np.zeros(packed_size(d, 2)))

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "Sym2":
        m = np.asarray(m, dtype=float)
        d = m.shape[0]
        (i, j), _ = packed_indices(d, 2)
        return cls(d, m[i, j])

    def to_dense(self) -> np.ndarray:
        (i, j), _ = packed_indices(self.d, 2)
        m = np.zeros((self.d, self.d))
        m[i, j] = self.data
        m[j, i] = self.data
        return m

    def frobenius(self) -> float:
        _, mult = packed_indices(self.d, 2)
        return float(np.sqrt(np.sum(mult * self.data**2)))

    def contract(self, u: np.ndarray, v: np.ndarray) -> float:
        (i, j), mult = packed_indices(self.d, 2)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        terms = self.data * (mult / 2.0) * (u[i] * v[j] + u[j] * v[i])
        return float(terms.sum())


@dataclass(frozen=True)
class Sym3:
    """Fully symmetric d x d x d tensor in packed sorted-index storage."""

    d: int
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float).ravel())
        if self.data.shape[0] != packed_size(self.d, 3):
            raise ConfigError("packed Sym3 buffer has the wrong length")

    @classmethod
    def zeros(cls, d: int) -> "Sym3":
        return cls(d, np.zeros(packed_size(d, 3)))

    @classmethod
    def from_dense(cls, t: np.ndarray) -> "Sym3":
        t = np.asarray(t, dtype=float)
        (i, j, l), _ = packed_indices(t.shape[0], 3)
        return cls(t.shape[0], t[i, j, l])

    def to_dense(self) -> np.ndarray:
        (i, j, l), _ = packed_indices(self.d, 3)
        t = np.zeros((self.d, self.d, self.d))
        for a, b, c in itertools.permutations(range(3)):
            idx = (i, j, l)
            t[idx[a], idx[b], idx[c]] = self.data
        return t

    def frobenius(self) -> float:
        _, mult = packed_indices(self.d, 3)
        return float(np.sqrt(np.sum(mult * self.data**2)))

    def contract(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
        """Multilinear form T(u, v, w)."""
        (i, j, l), mult = packed_indices(self.d, 3)
        u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
        s = (u[i] * v[j] * w[l] + u[i] * v[l] * w[j] + u[j] * v[i] * w[l]
             + u[j] * v[l] * w[i] + u[l] * v[i] * w[j] + u[l] * v[j] * w[i])
        return float(np.sum(self.data * (mult / 6.0) * s))

    def collapse(self, v: np.ndarray) -> np.ndarray:
        """Contraction over two slots: r_j = sum_{kl} T_{jkl} v_k v_l."""
        (i, j, l), mult = packed_indices(self.d, 3)
        v = np.asarray(v, dtype=float)
        coef = self.data * (mult / 3.0)   # 6 permutations pair up: 2 per leading slot
        r = np.zeros(self.d)
        np.add.at(r, i, coef * v[j] * v[l])
        np.add.at(r, j, coef * v[i] * v[l])
        np.add.at(r, l, coef * v[i] * v[j])
        return r

    def collapse_matrix(self, v: np.ndarray) -> np.ndarray:
        """Slice along one slot: M_{kl} = sum_j T_{jkl} v_j."""
        return np.einsum("jkl,j->kl", self.to_dense(), np.asarray(v, dtype=float))

    def contract_all_modes(self, w: np.ndarray) -> np.ndarray:
        """T(W, W, W) for a d x k map W, without forming the dense tensor."""
        (i, j, l), mult = packed_indices(self.d, 3)
        coef = self.data * (mult / 6.0)
        out = None
        rows = (w[i], w[j], w[l])
        for a, b, c in itertools.permutations(range(3)):
            t = np.einsum("p,pa,pb,pc->abc", coef, rows[a], rows[b], rows[c], optimize=True)
            out = t if out is None else out + t
        return out


def sym3_contract(t: Sym3, u, v, w) -> float:
    return t.contract(u, v, w)


def sym3_collapse(t: Sym3, v) -> np.ndarray:
    return t.collapse(v)


# ---------------------------------------------------------------------------
# packed score evaluation (batched; the accumulation hot path)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _s3_correction(d: int):
    """Columns to subtract for the delta terms of the Gaussian S3."""
    (i, j, l), _ = packed_indices(d, 3)
    # subtract x_i when j == l, x_j when i == l, x_l when i == j
    return (
        np.flatnonzero(j == l), i[j == l],
        np.flatnonzero(i == l), j[i == l],
        np.flatnonzero(i == j), l[i == j],
    )


def hermite2_packed(u: np.ndarray) -> np.ndarray:
    """(n, P2) packed H2(u) = u u^T - I rows for a batch u."""
    u = np.atleast_2d(u)
    (i, j), _ = packed_indices(u.shape[1], 2)
    s = u[:, i] * u[:, j]
    s[:, i == j] -= 1.0
    return s


def hermite3_packed(u: np.ndarray) -> np.ndarray:
    """(n, P3) packed third Hermite tensor rows for a batch u."""
    u = np.atleast_2d(u)
    d = u.shape[1]
    (i, j, l), _ = packed_indices(d, 3)
    s = u[:, i] * u[:, j] * u[:, l]
    p_jl, c_jl, p_il, c_il, p_ij, c_ij = _s3_correction(d)
    s[:, p_jl] -= u[:, c_jl]
    s[:, p_il] -= u[:, c_il]
    s[:, p_ij] -= u[:, c_ij]
    return s


def gmm_responsibilities(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, c) posterior component responsibilities, computed in the log domain."""
    x = np.atleast_2d(x)
    diff = x[:, None, :] - dist.means[None, :, :]
    logw = np.log(np.clip(dist.weights, 1e-300, None))
    return softmax_rows(logw[None, :] - 0.5 * np.einsum("ncd,ncd->nc", diff, diff))


def score2_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P2) packed S2 rows under the given input law."""
    x = np.atleast_2d(x)
    if dist.kind == "gaussian":
        return hermite2_packed(x)
    r = gmm_responsibilities(x, dist)
    out = np.zeros((x.shape[0], packed_size(x.shape[1], 2)))
    for c in range(dist.means.shape[0]):
        out += r[:, c:c + 1] * hermite2_packed(x - dist.means[c])
    return out


def score3_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P3) packed S3 rows under the given input law."""
    x = np.atleast_2d(x)
    if dist.kind == "gaussian":
        return hermite3_packed(x)
    r = gmm_responsibilities(x, dist)
    out = np.zeros((x.shape[0], packed_size(x.shape[1], 3)))
    for c in range(dist.means.shape[0]):
        out += r[:, c:c + 1] * hermite3_packed(x - dist.means[c])
    return out


# ---------------------------------------------------------------------------
# single-point operations
# ---------------------------------------------------------------------------

def score2_gaussian(x: np.ndarray) -> Sym2:
    """S2(x) = x x^T - I for standard Gaussian inputs."""
    x = np.asarray(x, dtype=float).ravel()
    return Sym2(x.shape[0], hermite2_packed(x[None, :])[0])


def score3_gaussian(x: np.ndarray) -> Sym3:
    """Third Hermite tensor; equals -grad^3 p / p for the standard Gaussian."""
    x = np.asarray(x, dtype=float).ravel()
    return Sym3(x.shape[0], hermite3_packed(x[None, :])[0])


def score_gmm(x: np.ndarray, dist: InputDistribution, order: int):
    """Score tensor of a known identity-covariance Gaussian mixture."""
    if dist.kind != "gmm":
        raise ConfigError("score_gmm requires a GaussianMixture input distribution")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != dist.d:
        raise ConfigError("input dimension mismatch")
    if order == 2:
        return Sym2(dist.d, score2_packed(x[None, :], dist)[0])
    if order == 3:
        return Sym3(dist.d, score3_packed(x[None, :], dist)[0])
    raise ConfigError("order must be 2 or 3")
