"""Generative k-mixture-of-experts model, input distributions, and sampling.

Model: z | x ~ softmax(<w_1,x>, ..., <w_{k-1},x>, 0), y | x,z ~ N(g(<a_z,x>), sigma^2).
The k-th gating row is fixed to zero; regressor rows have unit norm. Gating row
norms are bounded by the model radius R.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConfigError, DataError

# Counter-based generator so parallel sampling over disjoint ranges is
# reproducible; the name is echoed into fit reports.
RNG_NAME = "philox4x64"


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Independent child seeds for parallel trials."""
    return np.random.SeedSequence(seed).spawn(n)


# The package's one softmax / log-sum-exp. Every caller has a few columns and
# many rows, where an axis-1 numpy reduction costs far more per call than a
# loop over columns. Max is exact either way; numpy adds fewer than
# _PAIRWISE_WIDTH elements left to right, so the column loop below that width
# gives the same bits as ``.sum(axis=1)``, and from it on numpy's pairwise
# order is kept by calling it.
_PAIRWISE_WIDTH = 8


def _row_max(a: np.ndarray) -> np.ndarray:
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    return m


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Bitwise equal to ``a.sum(axis=1)``."""
    if a.shape[1] >= _PAIRWISE_WIDTH:
        return a.sum(axis=1)
    s = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        s += a[:, j]
    return s


def logsumexp_rows(logits: np.ndarray, zero_column: bool = False) -> np.ndarray:
    """log(sum_j exp(logits_j)) per row, stable.

    With ``zero_column`` the rows get an implicit extra logit 0, giving
    log(1 + sum_j exp(logits_j)); its term is added before the others.
    """
    if not zero_column:
        m = _row_max(logits)
        return m + np.log(_row_sum(np.exp(logits - m[:, None])))
    if logits.shape[1] == 0:
        return np.zeros(logits.shape[0])
    m = np.maximum(_row_max(logits), 0.0)
    return m + np.log(np.exp(-m) + _row_sum(np.exp(logits - m[:, None])))


def softmax_rows(logits: np.ndarray, zero_column: bool = False) -> np.ndarray:
    """Row-wise softmax, stable.

    With ``zero_column`` the rows get an implicit last logit 0 and the result
    has one more column, the probability of that last entry.
    """
    if not zero_column:
        e = np.exp(logits - _row_max(logits)[:, None])
        e /= _row_sum(e)[:, None]
        return e
    n, c = logits.shape
    m = np.maximum(_row_max(logits), 0.0) if c else np.zeros(n)
    e = np.empty((n, c + 1))
    np.subtract(logits, m[:, None], out=e[:, :c])
    np.negative(m, out=e[:, c])
    np.exp(e, out=e)
    e /= _row_sum(e)[:, None]
    return e


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
        norms = np.linalg.norm(a, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ConfigError("regressor rows must have unit norm (within 1e-9)")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
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

    def expert_means(self, x: np.ndarray) -> np.ndarray:
        """(n, k) matrix of g(<a_i, x>)."""
        return self.activation(np.atleast_2d(x) @ self.a.T)

    def predict(self, x: np.ndarray) -> float:
        """E[y | x] = sum_i softmax_i(w.x) g(<a_i, x>)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.d:
            raise ConfigError(f"predict expects a vector of dimension {self.d}")
        p = self.gating_probs(x[None, :])[0]
        return float(p @ self.expert_means(x[None, :])[0])

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if x.shape[1] != self.d:
            raise ConfigError(f"inputs must have dimension {self.d}")
        return np.einsum("nk,nk->n", self.gating_probs(x), self.expert_means(x))

    def w_padded(self) -> np.ndarray:
        """(k, d) gating matrix with the zero k-th row made explicit."""
        return np.vstack([self.w, np.zeros((1, self.d))])

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
    def from_json(cls, source: str | Path) -> "MoeModel":
        if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("{")):
            text = Path(source).read_text()
        else:
            text = str(source)
        payload = json.loads(text)
        return cls(
            a=np.array(payload["a"], dtype=float),
            w=np.array(payload["w"], dtype=float).reshape(payload["k"] - 1, payload["d"]),
            sigma=float(payload["sigma"]),
            activation=Activation.by_name(payload["activation"]),
            radius=float(payload.get("radius", 1.0)),
        )


@dataclass(frozen=True)
class InputDistribution:
    """Standard Gaussian or identity-covariance Gaussian mixture inputs."""

    kind: str                     # "gaussian" | "gmm"
    d: int
    weights: Optional[np.ndarray] = None   # (c,) mixture weights
    means: Optional[np.ndarray] = None     # (c, d) component means

    def __post_init__(self):
        if self.kind not in ("gaussian", "gmm"):
            raise ConfigError(f"unknown input distribution {self.kind!r}")
        if self.d < 1:
            raise ConfigError("dimension must be positive")
        if self.kind == "gmm":
            w = np.asarray(self.weights, dtype=float)
            m = np.atleast_2d(np.asarray(self.means, dtype=float))
            if w.ndim != 1 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ConfigError("mixture weights must be nonnegative and sum to 1")
            if m.shape != (w.shape[0], self.d):
                raise ConfigError("each mixture mean must have the input dimension")
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

    def slice(self, start: int, stop: int) -> "Dataset":
        z = None if self.z is None else self.z[start:stop]
        return Dataset(self.x[start:stop], self.y[start:stop], z)

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
        path = Path(path)
        if not path.exists():
            raise DataError(f"dataset file not found: {path}")
        with path.open() as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        names = [h.strip() for h in header]
        if "y" not in names:
            raise DataError("dataset CSV needs a 'y' column")
        xcols = [i for i, h in enumerate(names) if h.startswith("x")]
        ycol = names.index("y")
        z = table[:, names.index("z")].astype(int) if "z" in names else None
        return cls(table[:, xcols], table[:, ycol], z)


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
