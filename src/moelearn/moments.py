"""Empirical cross-moment tensors between transformed labels and input scores.

T2_hat = (1/n) sum_i P2(y_i) S2(x_i) and T3_hat = (1/n) sum_i P3(y_i) S3(x_i),
accumulated in packed symmetric storage. Also the untransformed tensor
(1/n) sum_i y_i S3(x_i), kept as a negative control: without the label
transform it carries rank-one terms in the gating directions.

Summation policy: each accumulate call splits its batch into fixed-size chunks,
each chunk is split once into its input law's components (``scores.components``)
and reduced, for T2 and T3, by BLAS matrix-vector products over blocks of packed
columns (``scores.contract_scores``), and its sums are added to the running sums
in row order; finalize only divides by the kept count. Chunks start at
multiples of CHUNK within each call, so one call and successive calls split at
multiples of CHUNK give the same bits. Each chunk's outlier cap scales its
median finite |P3(y)|, found by a partition (``_median``, np.median's bits);
a chunk that keeps every row is read in place, in any memory order (the score
sums do not depend on it), and only a chunk with rejects is copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cqt import CqtCoefficients, apply_p2, apply_p3
from .errors import ConfigError, NumericalError
from .model import Dataset, InputDistribution
from .scores import (Sym3, components, contract_scores, packed_indices, packed_size,
                     score_moment)

CHUNK = 4096

# A single corrupted record can dominate the cubed labels; samples with
# |P3(y)| above CAP_MULTIPLIER times the chunk's median finite |P3(y)|, and
# samples whose P3(y) is not finite, are rejected.
CAP_MULTIPLIER = 50.0


@dataclass
class _ChunkTally:
    kept: int
    rejected: int


@dataclass
class MomentAccumulator:
    d: int
    cqt: CqtCoefficients
    dist: InputDistribution
    chunks: list = field(default_factory=list)   # one _ChunkTally per chunk
    # running packed sums of P2(y) S2(x) and P3(y) S3(x). The first chunk's
    # sums start them (not zeros, which would turn its -0.0 entries into 0.0).
    t2: Optional[np.ndarray] = None
    t3: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dist.d != self.d:
            raise ConfigError("input distribution dimension does not match accumulator")

    @property
    def n_seen(self) -> int:
        return sum(c.kept for c in self.chunks)

    @property
    def n_rejected(self) -> int:
        return sum(c.rejected for c in self.chunks)


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty 1-D array of finite values, with its bits: the
    middle order statistic, or for an even length the two middle ones summed
    and halved, as np.mean of the pair is. ``a`` is partitioned in place; this
    keeps np.median, whose first call imports numpy.ma, off the fit path."""
    h = a.size // 2
    if a.size % 2:
        a.partition(h)
        return float(a[h])
    a.partition((h - 1, h))
    return float((a[h - 1] + a[h]) / 2.0)


def accumulate(acc: MomentAccumulator, batch) -> MomentAccumulator:
    """Add a batch of samples to the running sums, one chunk at a time.

    ``batch`` is a Dataset or an (x, y) pair with one label per row of x;
    empty arrays are a no-op. The outlier scale is estimated per chunk.
    """
    if isinstance(batch, Dataset):
        x, y = batch.x, batch.y
    else:
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ConfigError(f"batch has {x.shape[0]} input rows but {y.shape[0]} labels")
    n = y.shape[0]
    if n == 0:
        return acc
    if x.shape[1] != acc.d:
        raise ConfigError("batch dimension does not match accumulator")

    # a huge label overflows its transforms; the cap below rejects those rows
    with np.errstate(over="ignore", invalid="ignore"):
        p3 = apply_p3(acc.cqt, y)
        p2 = apply_p2(acc.cqt, y)

    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        p3c, p2c = p3[start:stop], p2[start:stop]
        finite = np.isfinite(p3c)
        # one NaN would make the median, and so the cap, NaN for the whole chunk
        scale = _median(np.abs(p3c[finite])) if finite.any() else 0.0
        cap = CAP_MULTIPLIER * max(scale, 1e-12)
        sel = finite & (np.abs(p3c) <= cap)
        xs, p2s, p3s = x[start:stop], p2c, p3c
        if not sel.all():
            xs, p2s, p3s = xs[sel], p2c[sel], p3c[sel]
        if xs.shape[0]:
            parts = components(xs, acc.dist)
            t2 = contract_scores(parts, p2s, 2)
            t3 = contract_scores(parts, p3s, 3)
        else:
            t2 = np.zeros(packed_size(acc.d, 2))
            t3 = np.zeros(packed_size(acc.d, 3))
        if acc.t2 is None:
            acc.t2, acc.t3 = t2, t3
        else:
            acc.t2 += t2
            acc.t3 += t3
        acc.chunks.append(_ChunkTally(int(sel.sum()), int((~sel).sum())))
    return acc


def finalize(acc: MomentAccumulator) -> tuple[np.ndarray, Sym3]:
    """Mean tensors over kept samples: T2 as a dense symmetric d x d matrix
    (its one reader, whitening, eigendecomposes it), T3 packed."""
    n = acc.n_seen
    if n < 1:
        raise NumericalError("empty accumulator: no samples survived")
    (i, j), _ = packed_indices(acc.d, 2)
    t2 = np.zeros((acc.d, acc.d))
    t2[i, j] = t2[j, i] = acc.t2 / n
    return t2, Sym3(acc.d, acc.t3 / n)


def raw_third_moment(batch: Dataset, dist: InputDistribution) -> Sym3:
    """(1/n) sum y_i S3(x_i) with no label transform (negative control)."""
    if batch.d != dist.d:
        raise ConfigError("batch dimension does not match input distribution")
    total = np.zeros(packed_size(batch.d, 3))
    for start in range(0, batch.n, CHUNK):
        stop = min(start + CHUNK, batch.n)
        total += score_moment(batch.x[start:stop], dist, batch.y[start:stop], 3)
    return Sym3(batch.d, total / batch.n)

