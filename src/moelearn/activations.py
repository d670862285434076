"""Scalar expert activations with derivatives up to order 3.

ReLU convention: g'(0) = 0 and g'' = g''' = 0 pointwise. The Dirac parts of
the ReLU derivatives never appear here, and ``cqt`` drops them too, so its
ReLU transform leaves E[S3''] = 0.327, not 0 (see its module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError


def _sigmoid(t):
    # two-sided evaluation from one exp(-|t|), stable for large |t|
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out[()] if t.ndim == 0 else out


def _sigmoid_d1(t):
    s = _sigmoid(t)
    return s * (1.0 - s)


def _sigmoid_d2(t):
    s = _sigmoid(t)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _sigmoid_d3(t):
    s = _sigmoid(t)
    sp = s * (1.0 - s)
    return sp * (1.0 - 2.0 * s) ** 2 - 2.0 * sp**2


_BUILTINS: dict[str, tuple[Callable, ...]] = {
    "linear": (
        lambda t: np.asarray(t, dtype=float),
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    ),
    "sigmoid": (_sigmoid, _sigmoid_d1, _sigmoid_d2, _sigmoid_d3),
    "relu": (
        lambda t: np.maximum(np.asarray(t, dtype=float), 0.0),
        lambda t: (np.asarray(t, dtype=float) > 0).astype(float),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    ),
}


@dataclass(frozen=True)
class Activation:
    """A scalar nonlinearity g with derivatives g', g'', g'''."""

    name: str
    derivatives: tuple = field(repr=False)

    @classmethod
    def linear(cls) -> "Activation":
        return cls("linear", _BUILTINS["linear"])

    @classmethod
    def sigmoid(cls) -> "Activation":
        return cls("sigmoid", _BUILTINS["sigmoid"])

    @classmethod
    def relu(cls) -> "Activation":
        return cls("relu", _BUILTINS["relu"])

    @classmethod
    def custom(cls, name: str, fns: Sequence[Callable]) -> "Activation":
        """User-supplied activation; ``fns`` must be (g, g', g'', g''')."""
        if len(fns) != 4:
            raise ConfigError("custom activation needs g and derivatives up to order 3")
        if name in _BUILTINS:
            raise ConfigError(f"activation name {name!r} shadows a built-in")
        return cls(name, tuple(fns))

    @classmethod
    def by_name(cls, name: str) -> "Activation":
        if name not in _BUILTINS:
            raise ConfigError(f"unknown activation {name!r}; built-ins: {sorted(_BUILTINS)}")
        return cls(name, _BUILTINS[name])

    def __call__(self, t, order: int = 0):
        if order not in (0, 1, 2, 3):
            raise ConfigError(f"derivative order must be in 0..3, got {order}")
        return self.derivatives[order](t)

