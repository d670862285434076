"""CSV ingestion and preprocessing for real-data experiments.

Rows with non-numeric cells are dropped and counted; a non-finite feature or
target (``nan``, ``inf``) is an error. Features are ZCA-whitened with
training-set statistics; the target is affinely rescaled by the training
min/max into [-1, 1]. The test split is transformed with the training
statistics only, and every transform is recorded so predictions can be mapped
back to the original units.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model import make_rng


@dataclass
class PreprocessRecord:
    feature_mean: np.ndarray
    zca: np.ndarray               # whitening matrix: x_white = (x - mean) @ zca
    target_min: float
    target_max: float
    dropped_columns: list = field(default_factory=list)
    rejected_rows: int = 0

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feature_mean) @ self.zca

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        return 2.0 * (y - self.target_min) / (self.target_max - self.target_min) - 1.0

    def inverse_target(self, y_scaled: np.ndarray) -> np.ndarray:
        return (np.asarray(y_scaled) + 1.0) / 2.0 * (self.target_max - self.target_min) + self.target_min


@dataclass
class TabularDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    preprocess: PreprocessRecord
    feature_names: list = field(default_factory=list)


def _read_numeric_csv(path: Path, columns) -> tuple[np.ndarray, list, int]:
    """The float table of the columns ``columns(header)`` names (names or
    indices), their header names, and how many rows had a selected cell that
    is missing or not a number; blank rows are skipped. A selected name the
    header repeats is a DataError, a column selected twice a ConfigError."""
    if not path.exists():
        raise DataError(f"CSV not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"empty CSV: {path}")
        header = [h.strip() for h in header]

        def col_index(col):
            if isinstance(col, int) and not isinstance(col, bool):   # a bool is no index
                if col < 0 or col >= len(header):
                    raise DataError(f"column index {col} out of range")
                return col
            if col not in header:
                raise DataError(f"column {col!r} not in header {header}")
            if header.count(col) > 1:
                raise DataError(f"column {col!r} appears {header.count(col)} times in "
                                f"the header of {path}")
            return header.index(col)

        idx = [col_index(c) for c in columns(header)]
        twice = next((header[i] for i in idx if idx.count(i) > 1), None)
        if twice is not None:
            raise ConfigError(f"column {twice!r} is selected more than once")
        rows, rejected = [], 0
        for raw in reader:
            if not raw or all(not c.strip() for c in raw):
                continue
            try:
                rows.append([float(raw[i]) for i in idx])
            except (ValueError, IndexError):
                rejected += 1
        if not rows:
            raise DataError(f"no numeric rows in {path} ({rejected} rejected)")
        return np.array(rows, dtype=float), [header[i] for i in idx], rejected


def ingest_csv(path: str | Path, feature_cols: Sequence, target_col,
               split: float = 0.75, seed: int = 0) -> TabularDataset:
    """Load, split, whiten (train statistics), and scale the target to [-1, 1].

    The train size is floor(n * split); the split is a seeded random
    permutation. Constant feature columns are dropped with a warning since
    they make the whitening singular; a constant target is an error.
    """
    path = Path(path)
    if not 0.0 < split < 1.0:
        raise DataError("split must lie strictly between 0 and 1")
    table, names, rejected = _read_numeric_csv(path, lambda _: [*feature_cols, target_col])
    bad = np.count_nonzero(~np.isfinite(table).all(axis=1))
    if bad:
        raise DataError(f"{bad} of {len(table)} numeric rows have a non-finite "
                        "feature or target (nan or inf)")
    x, y, names = table[:, :-1], table[:, -1], names[:-1]
    n = x.shape[0]
    if n < 4:
        raise DataError("need at least 4 usable rows")

    rng = make_rng(seed)
    perm = rng.permutation(n)
    n_train = int(np.floor(n * split))
    if n_train < 2 or n_train >= n:
        raise DataError("split leaves an empty train or test set")
    tr, te = perm[:n_train], perm[n_train:]
    x_tr, y_tr, x_te, y_te = x[tr], y[tr], x[te], y[te]

    spread = x_tr.max(axis=0) - x_tr.min(axis=0)
    dropped = [names[j] for j in np.flatnonzero(spread == 0.0)]
    if dropped:
        warnings.warn(f"dropping constant feature columns: {dropped}", RuntimeWarning)
        keep = spread > 0.0
        x_tr, x_te = x_tr[:, keep], x_te[:, keep]
        names = [nm for nm, k in zip(names, keep) if k]

    mean = x_tr.mean(axis=0)
    cov = np.cov(x_tr - mean, rowvar=False, bias=True)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        raise DataError("feature covariance is singular after dropping constants; "
                        "remove collinear columns")
    zca = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T

    y_min, y_max = float(y_tr.min()), float(y_tr.max())
    if y_max - y_min <= 0:
        raise DataError("target column is constant; scaling is degenerate")

    rec = PreprocessRecord(mean, zca, y_min, y_max, dropped, rejected)
    return TabularDataset(rec.transform_features(x_tr), rec.transform_target(y_tr),
                          rec.transform_features(x_te), rec.transform_target(y_te),
                          rec, names)
