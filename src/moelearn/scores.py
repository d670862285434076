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
    """Sorted index tuples of a packed symmetric tensor and their multiplicities.

    Returns (idx, mult) where idx is an (order, P) int array of sorted tuples
    in lexicographic order and mult[p] is the number of distinct permutations.
    """
    # np.nonzero lists the true entries of a mask of sorted tuples in C order,
    # which is lexicographic
    r = np.arange(d)
    if order == 2:
        tuples = np.array(np.nonzero(r[:, None] <= r))
        mult = np.where(tuples[0] == tuples[1], 1, 2).astype(float)
    else:
        tuples = np.array(np.nonzero((r[:, None, None] <= r[:, None]) & (r[:, None] <= r)))
        i, j, l = tuples
        mult = np.full(tuples.shape[1], 6.0)
        two_equal = (i == j) ^ (j == l)
        mult[two_equal] = 3.0
        mult[(i == j) & (j == l)] = 1.0
    return tuples, mult


def packed_size(d: int, order: int) -> int:
    return d * (d + 1) // 2 if order == 2 else d * (d + 1) * (d + 2) // 6


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

    def collapse_matrix(self, v: np.ndarray) -> np.ndarray:
        """Slice along one slot: M_{kl} = sum_j T_{jkl} v_j."""
        return np.einsum("jkl,j->kl", self.to_dense(), np.asarray(v, dtype=float))

    def contract_all_modes(self, w: np.ndarray) -> np.ndarray:
        """T(W, W, W) for a d x k map W, without forming the dense tensor."""
        (i, j, l), mult = packed_indices(self.d, 3)
        coef = self.data * (mult / 6.0)
        out = None
        rows = (w[i], w[j], w[l])
        # the six terms share operand shapes, so they share optimize=True's path
        path = np.einsum_path("p,pa,pb,pc->abc", coef, *rows, optimize=True)[0]
        for a, b, c in itertools.permutations(range(3)):
            t = np.einsum("p,pa,pb,pc->abc", coef, rows[a], rows[b], rows[c], optimize=path)
            out = t if out is None else out + t
        return out


# ---------------------------------------------------------------------------
# packed score evaluation (batched; the accumulation hot path)
# ---------------------------------------------------------------------------

# Packed columns built and contracted per step of ``score_moment``: a block
# holds 16 * rows doubles (0.5 MB for a chunk of 4096 rows). Keep it a multiple
# of 4: OpenBLAS's matrix-vector kernels take a call's columns in groups of
# four and the last few through other code, so at other widths a block's
# columns no longer get the arithmetic they get in one full-width product.
BLOCK_COLUMNS = 16


def _column_blocks(size: int) -> list:
    """Column slices of BLOCK_COLUMNS each. A remainder of fewer than four
    columns joins the block before it: numpy contracts a single column with a
    dot product, and OpenBLAS sums a row-major matrix of 2 or 3 columns in
    another order than the tail rows of a wider one, so such a block would
    not match the full-width product."""
    starts = list(range(0, size, BLOCK_COLUMNS))
    if len(starts) > 1 and size - starts[-1] < 4:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [size])]


@lru_cache(maxsize=None)
def _runs(d: int, order: int, start: int, stop: int) -> tuple:
    """The packed columns start..stop-1 cut into shared-prefix runs.

    In lexicographic order the columns with one prefix (i,) or (i, j) are
    contiguous, with last index l rising by one per column. Each piece is
    (first row, end row, prefix, first l), rows counted from ``start``.
    """
    idx = packed_indices(d, order)[0][:, start:stop]
    heads = np.flatnonzero(np.any(idx[:-1, 1:] != idx[:-1, :-1], axis=0)) + 1
    bounds = [0, *heads.tolist(), stop - start]
    return tuple((r0, r1, tuple(idx[:-1, r0].tolist()), int(idx[-1, r0]))
                 for r0, r1 in zip(bounds, bounds[1:]))


def _hermite_columns(ut: np.ndarray, order: int, cols: slice, out: np.ndarray,
                     pair: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of the packed order-2 or order-3 Hermite rows of a batch.

    The batch comes transposed as ut (d, n). The columns are written as the
    contiguous rows of out (width, n), which is returned. They are built one
    shared-prefix run (``_runs``) at a time. For order 3, x_i * x_j goes once
    per run into the one-row buffer ``pair`` (n,), and the run is one broadcast
    product of it with the contiguous rows ut[l0:l1]; for order 2 the run is
    x_i times those rows. The deltas are slice corrections: -1 on the diagonal
    for order 2; for order 3, -x_i where j == l (the run's first row), -x_j
    where i == l (that row again when i == j), and -x_l over the whole run
    where i == j, in that order. The left factor stays the first operand
    throughout, so for finite inputs every entry, NaNs included, has the bits
    of the per-column formula x_i * x_j * x_l.
    """
    for r0, r1, prefix, l0 in _runs(ut.shape[0], order, cols.start, cols.stop):
        rows, xl = out[r0:r1], ut[l0:l0 + r1 - r0]
        if order == 2:
            (i,) = prefix
            np.multiply(ut[i], xl, out=rows)
            if l0 == i:
                rows[0] -= 1.0
            continue
        i, j = prefix
        np.multiply(np.multiply(ut[i], ut[j], out=pair), xl, out=rows)
        if l0 == j:
            rows[0] -= ut[i]
            if i == j:
                rows[0] -= ut[j]
        if i == j:
            rows -= xl
    return out


def _transposed(u: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(u).T)


def gmm_responsibilities(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, c) posterior component responsibilities, computed in the log domain.
    The batch is read C-ordered, so the sums do not depend on its memory order."""
    x = np.ascontiguousarray(np.atleast_2d(x))
    diff = x[:, None, :] - dist.means[None, :, :]
    logw = np.log(np.clip(dist.weights, 1e-300, None))
    return softmax_rows(logw[None, :] - 0.5 * np.einsum("ncd,ncd->nc", diff, diff))


def components(x: np.ndarray, dist: InputDistribution) -> list:
    """(responsibility row (n,), transposed centred inputs (d, n)) per mixture
    component; standard Gaussian inputs are one component without one."""
    if dist.kind == "gaussian":
        return [(None, _transposed(x))]
    r = _transposed(gmm_responsibilities(x, dist))
    return [(r[c], _transposed(x - mean)) for c, mean in enumerate(dist.means)]


def _workspace(parts: list, width: int) -> list:
    """Buffers for ``_score_columns``: the (n,) ``pair`` row of
    ``_hermite_columns`` and a flat (width * n) block it builds in, and for a
    mixture one more, the (width, n) component sum. At BLOCK_COLUMNS = 16 and
    a chunk of 4096 rows a block is 0.5 MB.

    Reused from block to block: fresh arrays per block fault in new pages
    every time, which made the wide_moments benchmark about 1.5x slower.
    """
    n = parts[0][1].shape[1]
    blocks = 1 if parts[0][0] is None else 2
    return [np.empty(n)] + [np.empty(width * n) for _ in range(blocks)]


def _score_columns(parts: list, order: int, cols: slice, work: list) -> np.ndarray:
    """Columns ``cols`` of the packed score rows, built in the buffers ``work``.

    The result is an (n, width) view into ``work``, in the memory order the
    full-width matrices have always had: Fortran-ordered for Gaussian inputs,
    C-ordered for a mixture. A mixture's components are summed on contiguous
    (width, n) rows: each Hermite block is multiplied in place by its
    responsibility row (r the left operand), and the blocks are added in
    component order, the first as 0.0 + term, as a sum started from zeros
    gives. One transposed copy then writes the C-ordered block into the
    Hermite buffer, which the component loop no longer needs.
    """
    n, width = parts[0][1].shape[1], cols.stop - cols.start
    pair, out = work[0], work[1][:width * n].reshape(width, n)
    if parts[0][0] is None:
        return _hermite_columns(parts[0][1], order, cols, out, pair).T
    total = work[2][:width * n].reshape(width, n)
    for c, (r, ut) in enumerate(parts):
        term = np.multiply(r, _hermite_columns(ut, order, cols, out, pair), out=out)
        np.add(total if c else 0.0, term, out=total)
    block = out.reshape(n, width)
    np.copyto(block, total.T)
    return block


def _full_width(parts: list, order: int) -> np.ndarray:
    size = packed_size(parts[0][1].shape[0], order)
    return _score_columns(parts, order, slice(0, size), _workspace(parts, size))


def score2_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P2) packed S2 rows under the given input law."""
    return _full_width(components(np.atleast_2d(x), dist), 2)


def score3_packed(x: np.ndarray, dist: InputDistribution) -> np.ndarray:
    """(n, P3) packed S3 rows under the given input law."""
    return _full_width(components(np.atleast_2d(x), dist), 3)


def score_moment(x: np.ndarray, dist: InputDistribution, weights: np.ndarray,
                 order: int) -> np.ndarray:
    """``weights @ score{order}_packed(x, dist)`` without the (n, P) matrix."""
    return contract_scores(components(np.atleast_2d(x), dist), weights, order)


def contract_scores(parts: list, weights: np.ndarray, order: int) -> np.ndarray:
    """``score_moment`` on a batch already split into ``components``, so that
    several orders can share one split.

    Builds and contracts one block of BLOCK_COLUMNS packed columns at a time in
    buffers reused from block to block, so memory is O(n * BLOCK_COLUMNS)
    instead of O(n * d^order). Each block keeps the memory order of the full
    matrix and so goes through the same BLAS kernel: with BLAS on one thread
    the result equals the full-width product bit for bit. (With more threads
    BLAS may split a product by its width, so the full-width product itself
    then depends on the thread count.)
    """
    out = np.empty(packed_size(parts[0][1].shape[0], order))
    blocks = _column_blocks(out.shape[0])
    work = _workspace(parts, max(b.stop - b.start for b in blocks))
    for cols in blocks:
        out[cols] = weights @ _score_columns(parts, order, cols, work)
    return out
