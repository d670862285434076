"""Shared fixtures and model-drawing helpers."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest

from moelearn import Activation, InputDistribution, MoeModel


def unit_rows(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    a = rng.standard_normal((k, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def orthogonal_gating(rng: np.random.Generator, a: np.ndarray, rows: int) -> np.ndarray:
    """Unit-norm gating rows orthogonal to the span of the regressor rows."""
    d = a.shape[1]
    w = rng.standard_normal((rows, d))
    q, _ = np.linalg.qr(a.T)
    w = w - (w @ q) @ q.T
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def make_model(seed: int, k: int, d: int, sigma: float, activation: str = "linear",
               orthogonal: bool = True, radius: float = 1.0) -> MoeModel:
    rng = np.random.default_rng(seed)
    a = unit_rows(rng, k, d)
    if k == 1:
        w = np.zeros((0, d))
    elif orthogonal:
        w = orthogonal_gating(rng, a, k - 1) * min(1.0, radius)
    else:
        w = unit_rows(rng, k - 1, d) * min(1.0, radius)
    return MoeModel(a=a, w=w, sigma=sigma, activation=Activation.by_name(activation),
                    radius=radius)


@pytest.fixture
def gaussian10():
    return InputDistribution.standard_gaussian(10)


def _openblas_thread_calls():
    """(get, set) for the thread count of the OpenBLAS this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    return None


@pytest.fixture(scope="module")
def one_blas_thread():
    """BLAS on one thread, as the benchmark runs it. With more threads BLAS may
    split one product by its width, so a full-width product stops being one
    fixed reference."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    get, set_ = calls
    before = get()
    set_(1)
    yield
    set_(before)
