"""Generative k-mixture-of-experts model, input distributions, and sampling.

Model: z | x ~ softmax(<w_1,x>, ..., <w_{k-1},x>, 0), y | x,z ~ N(g(<a_z,x>), sigma^2).
The k-th gating row is fixed to zero; regressor rows have unit norm. Gating row
norms are bounded by the model radius R.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError, DataError

# Counter-based generator so parallel sampling over disjoint ranges is
# reproducible; the name is echoed into fit reports.
RNG_NAME = "philox4x64"
SIGMA_MAX = float(np.sqrt(np.finfo(float).max))   # the largest sigma whose square is finite


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


# The package's one max / exp / sum, under its softmax and log-sum-exp. The
# callers have few columns and many rows, where an axis-1 numpy reduction
# costs far more per call than a loop over columns, so exp_pass loops over
# the rows of ``logits.T`` (contiguous for gating_em's logits). Max and
# subtraction are exact in any layout; ``exp`` runs on one new contiguous
# array, whose rows are then added left to right. numpy's ``.sum(axis=1)``
# adds fewer than 8 columns in that order too, so up to 7 columns, the zero
# column included, the results have the bits of the axis-1 formulas.
class ExpPass(NamedTuple):
    m: np.ndarray     # (n,) row max of the logits, at least 0 with the zero column
    e: np.ndarray     # (c [+ 1], n) exp(logits - m), the zero column's exp(-m) last
    s: np.ndarray     # (n,) e's rows summed left to right, the zero column last


def exp_pass(rows: np.ndarray, zero_column: bool = False) -> ExpPass:
    """Max, exp and sum over (n, c) logits given as ``logits.T``, with an
    implicit last column of zeros if asked; the max in the order of
    ``logits.max(axis=1)`` and then ``np.maximum(m, 0.0)``."""
    c, n = rows.shape
    ops = [*rows, 0.0] if zero_column else [*rows]
    m = np.maximum(ops[0], ops[1]) if len(ops) > 1 else (np.zeros(n) if c == 0 else rows[0])
    for op in ops[2:]:
        np.maximum(m, op, out=m)
    e = np.empty((c + zero_column, n))
    np.subtract(rows, m, out=e[:c])
    if zero_column:
        np.negative(m, out=e[c])
    np.exp(e, out=e)
    s = e[0] if len(e) == 1 else e[0] + e[1]
    for row in e[2:]:
        s += row
    return ExpPass(m, e, s)


def logsumexp_rows(logits: np.ndarray, zero_column: bool = False) -> np.ndarray:
    """log(sum_j exp(logits_j)) per row, stable; ``zero_column`` adds a logit 0."""
    t = exp_pass(logits.T, zero_column)
    lse = np.log(t.s, out=t.s)
    lse += t.m
    return lse


def softmax_rows(logits: np.ndarray, zero_column: bool = False) -> np.ndarray:
    """Row-wise softmax, stable, as a C-contiguous (n, c) array; ``zero_column``
    adds a last logit 0, and the result a column for it."""
    t = exp_pass(logits.T, zero_column)
    probs = np.empty((logits.shape[0], len(t.e)))
    for j, row in enumerate(t.e):   # divides and transposes in one pass
        np.divide(row, t.s, out=probs[:, j])
    return probs


def load_json(path: str | Path, build):
    """``build(payload)`` for the JSON in the file at ``path``. A file that
    does not parse, lacks a key, holds a mistyped value or one the built
    object refuses is a DataError that names the file."""
    try:
        return build(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class MoeModel:
    a: np.ndarray           # (k, d) unit-norm regressor rows
    w: np.ndarray           # (k-1, d) gating rows; k-th row is implicitly 0
    sigma: float
    activation: Activation
    radius: float = 1.0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        w = np.asarray(self.w, dtype=float).reshape(-1, a.shape[1]) if np.size(self.w) else np.zeros((0, a.shape[1]))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)
        k, d = a.shape
        if k < 1 or d < 1:
            raise ConfigError("need k >= 1 and d >= 1")
        if w.shape != (k - 1, d):
            raise ConfigError(f"gating matrix must be {(k - 1, d)}, got {w.shape}")
        if not (np.isfinite(a).all() and np.isfinite(w).all()):
            raise ConfigError("regressor and gating rows must be finite")
        norms = np.linalg.norm(a, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ConfigError("regressor rows must have unit norm (within 1e-9)")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError("sigma must be finite and nonnegative")
        if self.sigma > SIGMA_MAX:
            raise ConfigError(f"sigma must be at most {SIGMA_MAX!r}, where sigma**2 is finite")
        if not 0 < self.radius < np.inf:
            raise ConfigError("radius must be finite and positive")
        if w.size and np.any(np.linalg.norm(w, axis=1) > self.radius + 1e-9):
            raise ConfigError("gating row norms must not exceed the radius")

    @property
    def k(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def gating_probs(self, x: np.ndarray) -> np.ndarray:
        """(n, k) gate probabilities; the k-th logit is the fixed zero."""
        return softmax_rows(np.atleast_2d(x) @ self.w.T, zero_column=True)

    def to_json(self, path: Optional[str | Path] = None) -> str:
        payload = {
            "k": self.k,
            "d": self.d,
            "sigma": self.sigma,
            "activation": self.activation.name,
            "a": self.a.tolist(),
            "w": self.w.tolist(),
            "radius": self.radius,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, path: str | Path) -> "MoeModel":
        return load_json(path, lambda payload: cls(
            a=np.array(payload["a"], dtype=float),
            w=np.array(payload["w"], dtype=float).reshape(payload["k"] - 1, payload["d"]),
            sigma=float(payload["sigma"]),
            activation=Activation.by_name(payload["activation"]),
            radius=float(payload.get("radius", 1.0)),
        ))


INPUT_KINDS = ("gaussian", "gmm")


@dataclass(frozen=True)
class InputDistribution:
    """Standard Gaussian or identity-covariance Gaussian mixture inputs."""

    kind: str                     # one of INPUT_KINDS
    d: int
    weights: Optional[np.ndarray] = None   # (c,) mixture weights
    means: Optional[np.ndarray] = None     # (c, d) component means

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ConfigError(f"unknown input distribution {self.kind!r}")
        if self.d < 1:
            raise ConfigError("dimension must be positive")
        if self.kind == "gmm":
            w = np.asarray(self.weights, dtype=float)
            m = np.atleast_2d(np.asarray(self.means, dtype=float))
            if (w.ndim != 1 or not np.isfinite(w).all() or np.any(w < 0)
                    or abs(w.sum() - 1.0) > 1e-12):
                raise ConfigError("input distribution mixture weights must be finite, "
                                  "nonnegative and sum to 1")
            if m.shape[0] != w.shape[0]:
                raise ConfigError(f"a mixture needs one mean per weight, got {m.shape[0]} "
                                  f"means and {w.shape[0]} weights")
            if m.shape[1:] != (self.d,):
                raise ConfigError("each mixture mean must have the input dimension")
            if not np.isfinite(m).all():
                raise ConfigError("input distribution mixture means must be finite")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "means", m)

    @classmethod
    def standard_gaussian(cls, d: int) -> "InputDistribution":
        return cls("gaussian", d)

    @classmethod
    def gaussian_mixture(cls, weights, means) -> "InputDistribution":
        means = np.atleast_2d(np.asarray(means, dtype=float))
        return cls("gmm", means.shape[1], np.asarray(weights, dtype=float), means)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.standard_normal((n, self.d))
        if self.kind == "gmm":
            comp = rng.choice(self.weights.shape[0], size=n, p=self.weights)
            x += self.means[comp]
        return x

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "d": self.d}
        return {"kind": "gmm", "d": self.d, "weights": self.weights.tolist(),
                "means": self.means.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "InputDistribution":
        if payload["kind"] == "gaussian":
            return cls.standard_gaussian(int(payload["d"]))
        return cls.gaussian_mixture(payload["weights"], payload["means"])


@dataclass
class Dataset:
    x: np.ndarray                 # (n, d)
    y: np.ndarray                 # (n,)
    z: Optional[np.ndarray] = None  # latent expert indices, diagnostics only

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] < 1:
            raise DataError("x and y must share a positive first dimension")
        if not np.isfinite(self.x).all():
            bad = np.count_nonzero(~np.isfinite(self.x).all(axis=1))
            raise DataError(f"{bad} of {self.x.shape[0]} rows have a non-finite "
                            "feature (NaN or inf)")
        if not np.isfinite(self.y).all():
            bad = np.count_nonzero(~np.isfinite(self.y))
            raise DataError(f"{bad} of {self.y.shape[0]} rows have a non-finite "
                            "label (NaN or inf)")
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=int).ravel()
            if self.z.shape[0] != self.y.shape[0]:
                raise DataError("z must match the sample count")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def to_csv(self, path: str | Path) -> None:
        d = self.d
        header = ",".join([f"x{i}" for i in range(d)] + ["y"] + (["z"] if self.z is not None else []))
        cols = [self.x, self.y[:, None]]
        if self.z is not None:
            cols.append(self.z[:, None].astype(float))
        table = np.hstack(cols)
        np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """The x... columns, y and an optional z of a CSV with a header row;
        a row with a cell that does not parse is an error, never dropped."""
        from .tabular import _read_numeric_csv   # tabular imports this module
        table, names, rejected = _read_numeric_csv(Path(path), lambda header: (
            [h for h in header if h.startswith("x")] + ["y"]
            + (["z"] if "z" in header else [])))
        if rejected:
            raise DataError(f"{rejected} of {rejected + len(table)} rows of {path} "
                            "have a missing or non-numeric cell")
        d = names.index("y")
        z = table[:, d + 1].astype(int) if "z" in names else None
        return cls(table[:, :d], table[:, d], z)


def sample_dataset(model: MoeModel, dist: InputDistribution, n: int, seed) -> Dataset:
    """Draw n i.i.d. samples from the model; deterministic for a fixed seed."""
    if n < 1:
        raise ConfigError("need n >= 1")
    if dist.d != model.d:
        raise ConfigError(f"input dimension {dist.d} does not match model dimension {model.d}")
    rng = make_rng(seed)
    x = dist.sample(n, rng)
    probs = model.gating_probs(x)
    u = rng.random(n)
    z = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    z = np.minimum(z, model.k - 1)  # guard against u == 1 round-off
    means = model.activation(np.einsum("nd,nd->n", model.a[z], x))
    y = means + model.sigma * rng.standard_normal(n)
    return Dataset(x, y, z)
