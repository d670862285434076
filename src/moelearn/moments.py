"""Empirical cross-moment tensors between transformed labels and input scores.

T2_hat = (1/n) sum_i P2(y_i) S2(x_i) and T3_hat = (1/n) sum_i P3(y_i) S3(x_i),
accumulated in packed symmetric storage. Also the untransformed tensor
(1/n) sum_i y_i S3(x_i), kept as a negative control: without the label
transform it carries rank-one terms in the gating directions.

Summation policy: each accumulate call splits its batch into fixed-size chunks,
each chunk is reduced by BLAS matrix-vector products over blocks of packed
columns (``scores.score_moment``), and finalize adds chunk sums in global
offset order. Accumulators merged in any tree order therefore finalize bitwise
identically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cqt import CqtCoefficients, apply_p2, apply_p3
from .errors import ConfigError, DataError, NumericalError
from .model import Dataset, InputDistribution
from .scores import Sym2, Sym3, packed_size, score_moment

CHUNK = 4096

# A single corrupted record can dominate the cubed labels; samples with
# |P3(y)| above cap_multiplier times the chunk's median finite |P3(y)|, and
# samples whose P3(y) is not finite, are rejected.
DEFAULT_CAP_MULTIPLIER = 50.0


@dataclass
class _ChunkSums:
    offset: int
    kept: int
    rejected: int
    t2: np.ndarray
    t3: np.ndarray


@dataclass
class MomentAccumulator:
    d: int
    cqt: CqtCoefficients
    dist: InputDistribution
    cap_multiplier: float = DEFAULT_CAP_MULTIPLIER
    chunks: list = field(default_factory=list)
    _next_offset: int = 0

    def __post_init__(self):
        if self.dist.d != self.d:
            raise ConfigError("input distribution dimension does not match accumulator")

    @property
    def n_seen(self) -> int:
        return sum(c.kept for c in self.chunks)

    @property
    def n_rejected(self) -> int:
        return sum(c.rejected for c in self.chunks)


def accumulate(acc: MomentAccumulator, batch, offset: int | None = None) -> MomentAccumulator:
    """Add a batch of samples. ``offset`` is the global index of the first sample.

    ``batch`` is a Dataset or an (x, y) pair; empty arrays are a no-op.
    Parallel callers accumulate disjoint chunk-aligned ranges into separate
    accumulators with explicit offsets and merge them afterwards; the outlier
    scale is estimated per chunk, so partitioned and serial runs agree bitwise.
    """
    if isinstance(batch, Dataset):
        x, y = batch.x, batch.y
    else:
        x, y = batch
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if n == 0:
        return acc
    if x.shape[1] != acc.d:
        raise ConfigError("batch dimension does not match accumulator")
    if offset is None:
        offset = acc._next_offset

    p3 = apply_p3(acc.cqt, y)
    p2 = apply_p2(acc.cqt, y)

    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        p3c, p2c = p3[start:stop], p2[start:stop]
        finite = np.isfinite(p3c)
        # one NaN would make the median, and so the cap, NaN for the whole chunk
        scale = np.median(np.abs(p3c[finite])) if finite.any() else 0.0
        cap = acc.cap_multiplier * max(scale, 1e-12)
        sel = finite & (np.abs(p3c) <= cap)
        xs = x[start:stop][sel]
        if xs.shape[0]:
            t2 = score_moment(xs, acc.dist, p2c[sel], 2)
            t3 = score_moment(xs, acc.dist, p3c[sel], 3)
        else:
            t2 = np.zeros(packed_size(acc.d, 2))
            t3 = np.zeros(packed_size(acc.d, 3))
        acc.chunks.append(_ChunkSums(offset + start, int(sel.sum()),
                                     int((~sel).sum()), t2, t3))
    acc._next_offset = max(acc._next_offset, offset + n)
    return acc


def merge(*accs: MomentAccumulator) -> MomentAccumulator:
    """Combine accumulators built over disjoint sample ranges."""
    base = accs[0]
    out = MomentAccumulator(base.d, base.cqt, base.dist, base.cap_multiplier)
    for a in accs:
        if (a.d, a.cap_multiplier) != (base.d, base.cap_multiplier):
            raise ConfigError("cannot merge accumulators with different configurations")
        out.chunks.extend(a.chunks)
        out._next_offset = max(out._next_offset, a._next_offset)
    return out


def finalize(acc: MomentAccumulator) -> tuple[Sym2, Sym3]:
    """Mean tensors over kept samples; chunk sums added in offset order."""
    n = acc.n_seen
    if n < 1:
        raise NumericalError("empty accumulator: no samples survived")
    order = sorted(range(len(acc.chunks)), key=lambda i: acc.chunks[i].offset)
    t2 = np.add.reduce([acc.chunks[i].t2 for i in order])
    t3 = np.add.reduce([acc.chunks[i].t3 for i in order])
    return Sym2(acc.d, t2 / n), Sym3(acc.d, t3 / n)


def raw_third_moment(batch: Dataset, dist: InputDistribution) -> Sym3:
    """(1/n) sum y_i S3(x_i) with no label transform (negative control)."""
    if batch.d != dist.d:
        raise ConfigError("batch dimension does not match input distribution")
    total = np.zeros(packed_size(batch.d, 3))
    for start in range(0, batch.n, CHUNK):
        stop = min(start + CHUNK, batch.n)
        total += score_moment(batch.x[start:stop], dist, batch.y[start:stop], 3)
    return Sym3(batch.d, total / batch.n)


# ---------------------------------------------------------------------------
# optional binary tensor dump
# ---------------------------------------------------------------------------

_MAGIC = b"MOET"
_VERSION = 1


def save_tensor_dump(path: str | Path, t2: Sym2, t3: Sym3) -> None:
    """Little-endian dump: magic, version, d, packed Sym2 then Sym3 float64."""
    if t2.d != t3.d:
        raise ConfigError("tensor dimensions differ")
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, t2.d))
        fh.write(t2.data.astype("<f8").tobytes())
        fh.write(t3.data.astype("<f8").tobytes())


def load_tensor_dump(path: str | Path) -> tuple[Sym2, Sym3]:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise DataError("not a moment-tensor dump (bad magic)")
    version, d = struct.unpack("<II", raw[4:12])
    if version != _VERSION:
        raise DataError(f"unsupported tensor dump version {version}")
    n2, n3 = packed_size(d, 2), packed_size(d, 3)
    body = np.frombuffer(raw[12:], dtype="<f8")
    if body.shape[0] != n2 + n3:
        raise DataError("tensor dump payload has the wrong length")
    return Sym2(d, body[:n2].copy()), Sym3(d, body[n2:].copy())
