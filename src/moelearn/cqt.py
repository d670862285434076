"""Cubic and quadratic label transforms and their coefficient solver.

The transforms P3(y) = y^3 + alpha y^2 + beta y and P2(y) = y^2 + gamma y are
chosen so that, with Z ~ N(0,1), Y | Z ~ N(g(Z), sigma^2) and
    S3(z) = E[P3(Y) | Z=z] = g^3 + alpha g^2 + (beta + 3 sigma^2) g + alpha sigma^2,
    S2(z) = E[P2(Y) | Z=z] = g^2 + gamma g + sigma^2,
the first two derivative moments vanish: E[S3'(Z)] = E[S3''(Z)] = E[S2'(Z)] = 0.
(alpha, beta) solve a 2x2 linear system in Gaussian moments of g and its
derivatives; gamma = -2 E[g g'] / E[g'].

The nonzero scales c3 = E[S3'''(Z)] and c2 = E[S2''(Z)] multiply the rank-one
terms of the population moment tensors.

Moments are computed by Gauss-Hermite quadrature (order 80 by default). ReLU
moments use half-line closed forms under the a.e. convention g'' = g''' = 0,
as quadrature of kinked integrands converges too slowly. That convention does
not annihilate the distributional parts: g' jumps at 0, so by Stein's lemma
E[S3''(Z)] = (beta + 3 sigma^2) phi(0) = 0.327, not 0 (ROADMAP.md, ReLU item).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .activations import Activation
from .errors import NumericalError

DEFAULT_QUADRATURE_ORDER = 80

# validity thresholds
_COND_TOL = 1e-8
_SCALE_TOL = 1e-6


@lru_cache(maxsize=None)
def gauss_hermite(order: int):
    """Probabilists' Gauss-Hermite nodes and weights normalized to E[1] = 1."""
    z, w = np.polynomial.hermite_e.hermegauss(order)
    return z, w / math.sqrt(2.0 * math.pi)


def gaussian_expectation(fn, order: int = DEFAULT_QUADRATURE_ORDER) -> float:
    z, w = gauss_hermite(order)
    return float(np.sum(w * fn(z)))


# ReLU closed forms under the a.e. derivative convention (g''=g'''=0, g'=1{z>0}):
#   E[g'] = 1/2, E[g g'] = E[Z+] = 1/sqrt(2 pi), E[g'^2 + g g''] = 1/2,
#   E[g''] = 0, E[g^2 g'] = 1/2, E[g'' g^2] = 0, E[g g'^2] = 1/sqrt(2 pi).
_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
_RELU_MOMENTS = {
    "g1": 0.5, "gg1": _PHI0, "pair": 0.5, "g2": 0.0,
    "g2g1": 0.5, "g2gpp": 0.0, "gg1sq": _PHI0,
}


def activation_moments(act: Activation) -> dict:
    """Gaussian moments of g and derivatives entering the coefficient system."""
    if act.name == "relu":
        return dict(_RELU_MOMENTS)
    g = lambda z: act(z, 0)
    g1 = lambda z: act(z, 1)
    g2 = lambda z: act(z, 2)
    E = gaussian_expectation
    return {
        "g1": E(g1),
        "gg1": E(lambda z: g(z) * g1(z)),
        "pair": E(lambda z: g1(z) ** 2 + g(z) * g2(z)),
        "g2": E(g2),
        "g2g1": E(lambda z: g(z) ** 2 * g1(z)),
        "g2gpp": E(lambda z: g2(z) * g(z) ** 2),
        "gg1sq": E(lambda z: g(z) * g1(z) ** 2),
    }


@dataclass(frozen=True)
class CqtCoefficients:
    """Solved (alpha, beta, gamma) plus the tensor scales they certify."""

    alpha: float
    beta: float
    gamma: float
    sigma: float
    activation: Activation
    c3: float   # E[S3'''(Z)]
    c2: float   # E[S2''(Z)]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "c2": self.c2, "c3": self.c3, "sigma": self.sigma,
            "activation": self.activation.name,
        }


def apply_p3(c: CqtCoefficients, y):
    """Cubic transform P3(y) = y^3 + alpha y^2 + beta y."""
    y = np.asarray(y, dtype=float)
    return y**3 + c.alpha * y**2 + c.beta * y


def apply_p2(c: CqtCoefficients, y):
    """Quadratic transform P2(y) = y^2 + gamma y."""
    y = np.asarray(y, dtype=float)
    return y**2 + c.gamma * y


def _condition_integrals(act: Activation, alpha: float, beta: float, gamma: float,
                         sigma: float, order: int) -> dict:
    """The five derivative moments E[S3'], E[S3''], E[S3'''], E[S2'], E[S2'']."""
    if act.name == "relu":
        m = _RELU_MOMENTS
        return {
            "s3_d1": 3 * m["g2g1"] + 2 * alpha * m["gg1"] + (beta + 3 * sigma**2) * m["g1"],
            "s3_d2": 2 * alpha * m["pair"] + 6 * m["gg1sq"],
            "s3_d3": 3.0,   # E[6 g'^3] = 6 E[1{Z>0}]
            "s2_d1": 2 * m["gg1"] + gamma * m["g1"],
            "s2_d2": 2 * m["pair"] + gamma * m["g2"],
        }
    g = lambda z: act(z, 0)
    g1 = lambda z: act(z, 1)
    g2 = lambda z: act(z, 2)
    g3 = lambda z: act(z, 3)
    E = lambda fn: gaussian_expectation(fn, order)
    s2eff = sigma**2
    return {
        "s3_d1": E(lambda z: 3 * g(z)**2 * g1(z) + 2 * alpha * g(z) * g1(z)
                   + (beta + 3 * s2eff) * g1(z)),
        "s3_d2": E(lambda z: 2 * alpha * (g1(z)**2 + g(z) * g2(z)) + beta * g2(z)
                   + 3 * g2(z) * (g(z)**2 + s2eff) + 6 * g(z) * g1(z)**2),
        "s3_d3": E(lambda z: 6 * g1(z)**3 + 18 * g(z) * g1(z) * g2(z) + 3 * g(z)**2 * g3(z)
                   + 2 * alpha * (3 * g1(z) * g2(z) + g(z) * g3(z))
                   + (beta + 3 * s2eff) * g3(z)),
        "s2_d1": E(lambda z: 2 * g(z) * g1(z) + gamma * g1(z)),
        "s2_d2": E(lambda z: 2 * (g1(z)**2 + g(z) * g2(z)) + gamma * g2(z)),
    }


def solve_cqt(activation: Activation, sigma: float) -> CqtCoefficients:
    """Solve the coefficient system for the given activation and noise level.

    Raises NumericalError naming sigma and the violated condition when the
    activation is not valid at this sigma. Each check is written so that a
    NaN fails it.
    """
    sigma = float(sigma)

    def invalid(why):
        return NumericalError(
            f"activation {activation.name!r} not valid at sigma={sigma!r}: {why}")

    m = activation_moments(activation)
    mat = np.array([[2 * m["gg1"], m["g1"]],
                    [2 * m["pair"], m["g2"]]])
    rhs = np.array([
        -3 * (m["g2g1"] + sigma**2 * m["g1"]),
        -3 * (m["g2gpp"] + sigma**2 * m["g2"] + 2 * m["gg1sq"]),
    ])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    scale = np.abs(mat).max()
    if not (scale > 0.0 and abs(det) >= 1e-12 * scale**2):
        raise invalid("coefficient system is singular")
    alpha, beta = np.linalg.solve(mat, rhs)
    if not abs(m["g1"]) >= 1e-12:
        raise invalid("E[g'] = 0, gamma undefined")
    gamma = -2 * m["gg1"] / m["g1"]
    if not np.isfinite([alpha, beta, gamma]).all():
        raise invalid(f"coefficients (alpha, beta, gamma) = ({alpha:.3e}, {beta:.3e}, "
                      f"{gamma:.3e}) are not finite")

    ints = _condition_integrals(activation, alpha, beta, gamma, sigma,
                                DEFAULT_QUADRATURE_ORDER)
    if not (abs(ints["s3_d1"]) <= _COND_TOL and abs(ints["s3_d2"]) <= _COND_TOL):
        raise invalid("first condition E[S3']=E[S3'']=0 violated "
                      f"({ints['s3_d1']:.3e}, {ints['s3_d2']:.3e})")
    if not abs(ints["s2_d1"]) <= _COND_TOL:
        raise invalid(f"second condition E[S2']=0 violated ({ints['s2_d1']:.3e})")
    if not _SCALE_TOL <= abs(ints["s3_d3"]) < math.inf:
        raise invalid(f"third moment scale E[S3''']={ints['s3_d3']:.3e} vanishes or is not finite")
    if not _SCALE_TOL <= abs(ints["s2_d2"]) < math.inf:
        raise invalid(f"second moment scale E[S2'']={ints['s2_d2']:.3e} vanishes or is not finite")
    return CqtCoefficients(float(alpha), float(beta), float(gamma), sigma,
                           activation, float(ints["s3_d3"]), float(ints["s2_d2"]))


@dataclass(frozen=True)
class ConditionReport:
    """The five condition integrals with quadrature error estimates."""

    s3_d1: float
    s3_d2: float
    s3_d3: float
    s2_d1: float
    s2_d2: float
    errors: dict

    def satisfied(self, tol: float = _COND_TOL) -> bool:
        return (abs(self.s3_d1) <= tol and abs(self.s3_d2) <= tol
                and abs(self.s2_d1) <= tol)


def check_conditions(c: CqtCoefficients) -> ConditionReport:
    """Re-evaluate the condition integrals; error estimate via doubled order.

    For ReLU the integrals are closed forms; the error estimate compares them
    against adaptive half-line quadrature instead.
    """
    order = DEFAULT_QUADRATURE_ORDER
    vals = _condition_integrals(c.activation, c.alpha, c.beta, c.gamma, c.sigma, order)
    if c.activation.name == "relu":
        ref = _relu_integrals_adaptive(c.alpha, c.beta, c.gamma, c.sigma)
    else:
        ref = _condition_integrals(c.activation, c.alpha, c.beta, c.gamma, c.sigma, 2 * order)
    errors = {k: abs(vals[k] - ref[k]) for k in vals}
    return ConditionReport(vals["s3_d1"], vals["s3_d2"], vals["s3_d3"],
                           vals["s2_d1"], vals["s2_d2"], errors)


def _relu_integrals_adaptive(alpha: float, beta: float, gamma: float, sigma: float) -> dict:
    """Half-line adaptive quadrature oracle for the ReLU condition integrals."""
    from scipy.integrate import quad

    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    # on z > 0: g = z, g' = 1, g'' = g''' = 0
    s2eff = sigma**2
    half = lambda fn: quad(lambda z: fn(z) * phi(z), 0.0, np.inf, limit=200)[0]
    return {
        "s3_d1": half(lambda z: 3 * z**2 + 2 * alpha * z + (beta + 3 * s2eff)),
        "s3_d2": half(lambda z: 2 * alpha + 6 * z),
        "s3_d3": half(lambda z: 6.0),
        "s2_d1": half(lambda z: 2 * z + gamma),
        "s2_d2": half(lambda z: 2.0),
    }
