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


# ---------------------------------------------------------------------------
# packed score evaluation (batched; the accumulation hot path)
# ---------------------------------------------------------------------------

# Packed columns built and contracted per step of ``score_moment``. Keep it a
# multiple of 64: BLAS's matrix-vector kernels take the last few columns of a
# call through other code than the rest, so with other widths a block's columns
# no longer get the arithmetic they get in one full-width product.
BLOCK_COLUMNS = 64


def _column_blocks(size: int) -> list:
    """Column slices of BLOCK_COLUMNS each. A one-column remainder joins the
    block before it: numpy contracts a single column with a dot product, not
    with the matrix-vector kernel of the full-width product."""
    starts = list(range(0, size, BLOCK_COLUMNS))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [size])]


def _hermite_columns(ut: np.ndarray, order: int, cols: slice, out: np.ndarray,
                     tmp: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of the packed order-2 or order-3 Hermite rows of a batch.

    The batch comes transposed as ut (d, n). The columns are written into out
    (width, n), with tmp (same shape) holding each gathered factor, and are
    returned as out.T: (n, width), Fortran-ordered.
    """
    idx, _ = packed_indices(ut.shape[0], order)
    idx = idx[:, cols]
    np.take(ut, idx[0], axis=0, out=out, mode="clip")
    for k in idx[1:]:
        np.take(ut, k, axis=0, out=tmp, mode="clip")
        out *= tmp
    if order == 2:
        out[idx[0] == idx[1]] -= 1.0
        return out.T
    i, j, l = idx
    # subtract x_i when j == l, x_j when i == l, x_l when i == j
    for delta, other in ((j == l, i), (i == l, j), (i == j, l)):
        out[delta] -= ut[other[delta]]
    return out.T


def _transposed(u: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(u).T)


def gmm_responsibilities(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, c) posterior component responsibilities, computed in the log domain."""
    x = np.atleast_2d(x)
    diff = x[:, None, :] - dist.means[None, :, :]
    logw = np.log(np.clip(dist.weights, 1e-300, None))
    return softmax_rows(logw[None, :] - 0.5 * np.einsum("ncd,ncd->nc", diff, diff))


def _components(x: np.ndarray, dist: InputDistribution) -> list:
    """(responsibility column, transposed centred inputs) per mixture
    component; standard Gaussian inputs are one component without one."""
    if dist.kind == "gaussian":
        return [(None, _transposed(x))]
    r = gmm_responsibilities(x, dist)
    return [(r[:, c:c + 1], _transposed(x - mean)) for c, mean in enumerate(dist.means)]


def _workspace(parts: list, width: int) -> list:
    """Flat buffers for ``_score_columns``: two, and two more for a mixture.

    Reused from block to block: fresh arrays per block fault in new pages
    every time, which made the wide_moments benchmark about 1.5x slower.
    """
    n = parts[0][1].shape[1]
    return [np.empty(width * n) for _ in range(2 if parts[0][0] is None else 4)]


def _score_columns(parts: list, order: int, cols: slice, work: list) -> np.ndarray:
    """Columns ``cols`` of the packed score rows, built in the buffers ``work``.

    Mixture components are added from zero in their order. The result is a
    view into ``work``: Fortran-ordered for Gaussian inputs, C-ordered for a
    mixture, as the full-width matrices have always been.
    """
    n, width = parts[0][1].shape[1], cols.stop - cols.start
    out, tmp = (buf[:width * n].reshape(width, n) for buf in work[:2])
    if parts[0][0] is None:
        return _hermite_columns(parts[0][1], order, cols, out, tmp)
    total, term = (buf[:width * n].reshape(n, width) for buf in work[2:])
    total.fill(0.0)
    for r, ut in parts:
        np.multiply(r, _hermite_columns(ut, order, cols, out, tmp), out=term)
        total += term
    return total


def _full_width(parts: list, order: int) -> np.ndarray:
    size = packed_size(parts[0][1].shape[0], order)
    return _score_columns(parts, order, slice(0, size), _workspace(parts, size))


def hermite2_packed(u: np.ndarray) -> np.ndarray:
    """(n, P2) packed H2(u) = u u^T - I rows for a batch u."""
    return _full_width([(None, _transposed(u))], 2)


def hermite3_packed(u: np.ndarray) -> np.ndarray:
    """(n, P3) packed third Hermite tensor rows for a batch u."""
    return _full_width([(None, _transposed(u))], 3)


def score2_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P2) packed S2 rows under the given input law."""
    return _full_width(_components(np.atleast_2d(x), dist), 2)


def score3_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P3) packed S3 rows under the given input law."""
    return _full_width(_components(np.atleast_2d(x), dist), 3)


def score_moment(x: np.ndarray, dist: InputDistribution, weights: np.ndarray,
                 order: int) -> np.ndarray:
    """``weights @ score{order}_packed(x, dist)`` without the (n, P) matrix.

    Builds and contracts one block of BLOCK_COLUMNS packed columns at a time in
    buffers reused from block to block, so memory is O(n * BLOCK_COLUMNS)
    instead of O(n * d^order). Each block keeps the memory order of the full
    matrix and so goes through the same BLAS kernel: with BLAS on one thread
    the result equals the full-width product bit for bit. (With more threads
    BLAS may split a product by its width, so the full-width product itself
    then depends on the thread count.)
    """
    x = np.atleast_2d(x)
    parts = _components(x, dist)
    out = np.empty(packed_size(x.shape[1], order))
    blocks = _column_blocks(out.shape[0])
    work = _workspace(parts, max(b.stop - b.start for b in blocks))
    for cols in blocks:
        out[cols] = weights @ _score_columns(parts, order, cols, work)
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
