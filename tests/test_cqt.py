import math

import numpy as np
import pytest
from scipy.integrate import quad

from moelearn import Activation, apply_p2, apply_p3, check_conditions, solve_cqt
from moelearn.cqt import activation_moments, gauss_hermite, gaussian_expectation
from moelearn.errors import NumericalError


def test_linear_coefficients_closed_form():
    for sigma in (0.0, 0.1, 0.5):
        c = solve_cqt(Activation.linear(), sigma)
        assert c.alpha == pytest.approx(0.0, abs=1e-12)
        assert c.beta == pytest.approx(-3.0 * (1.0 + sigma**2), abs=1e-10)
        assert c.gamma == pytest.approx(0.0, abs=1e-12)
        assert c.c3 == pytest.approx(6.0, abs=1e-10)
        assert c.c2 == pytest.approx(2.0, abs=1e-10)


def test_relu_coefficients_closed_form():
    for sigma in (0.0, 0.1, 0.5):
        c = solve_cqt(Activation.relu(), sigma)
        assert c.alpha == pytest.approx(-3.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
        assert c.beta == pytest.approx(3.0 * (4.0 / math.pi - sigma**2 - 1.0), abs=1e-12)
        assert c.gamma == pytest.approx(-2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
        assert c.c3 == pytest.approx(3.0)
        assert c.c2 == pytest.approx(1.0)


def test_sigmoid_solution_matches_printed_system():
    # solving the system as printed to four decimals gives the anchor values
    printed = np.linalg.solve(np.array([[0.2066, 0.2066], [0.0624, -0.0001]]),
                              np.array([-0.1755, -0.0936]))
    assert printed[0] == pytest.approx(-1.4990, abs=5e-4)
    assert printed[1] == pytest.approx(0.6495, abs=5e-4)
    c = solve_cqt(Activation.sigmoid(), 0.0)
    assert c.alpha == pytest.approx(printed[0], abs=2e-3)
    assert c.beta == pytest.approx(printed[1], abs=2e-3)
    assert c.gamma == pytest.approx(-1.0, abs=1e-8)


def test_sigmoid_matrix_entries_reproduce_printed_values():
    m = activation_moments(Activation.sigmoid())
    assert 2 * m["gg1"] == pytest.approx(0.2066, abs=5e-4)
    assert m["g1"] == pytest.approx(0.2066, abs=5e-4)
    assert 2 * m["pair"] == pytest.approx(0.0624, abs=5e-4)
    assert 3 * m["g2g1"] == pytest.approx(0.1755, abs=5e-4)
    assert 3 * m["g1"] == pytest.approx(0.6199, abs=5e-4)
    assert 3 * (m["g2gpp"] + 2 * m["gg1sq"]) == pytest.approx(0.0936, abs=5e-4)


def test_sigmoid_symmetry_identity_certifies_gamma():
    # g(-z) = 1 - g(z) forces E[g g'] = E[g'] / 2, hence gamma = -1
    m = activation_moments(Activation.sigmoid())
    assert m["gg1"] == pytest.approx(m["g1"] / 2.0, abs=1e-10)


def test_relu_closed_forms_match_adaptive_quadrature():
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    e_g1 = quad(lambda z: phi(z), 0, np.inf)[0]
    e_gg1 = quad(lambda z: z * phi(z), 0, np.inf)[0]
    m = activation_moments(Activation.relu())
    assert m["g1"] == pytest.approx(e_g1, abs=1e-8)
    assert abs(m["g1"] - 0.5) < 1e-12
    assert m["gg1"] == pytest.approx(e_gg1, abs=1e-8)
    assert abs(m["gg1"] - 1.0 / math.sqrt(2 * math.pi)) < 1e-12


def test_alpha_gamma_sigma_independent_beta_quadratic():
    for name in ("linear", "sigmoid", "relu"):
        act = Activation.by_name(name)
        c0 = solve_cqt(act, 0.0)
        for sigma in (0.5, 1.0):
            c = solve_cqt(act, sigma)
            assert c.alpha == pytest.approx(c0.alpha, abs=1e-9)
            assert c.gamma == pytest.approx(c0.gamma, abs=1e-9)
            assert c.beta == pytest.approx(c0.beta - 3.0 * sigma**2, abs=1e-9)
            assert c.c3 == pytest.approx(c0.c3, abs=1e-9)
            assert c.c2 == pytest.approx(c0.c2, abs=1e-9)


def test_apply_transforms():
    c = solve_cqt(Activation.linear(), 0.0)
    assert apply_p3(c, 2.0) == pytest.approx(2.0)   # 8 - 6
    assert apply_p3(c, 0.0) == 0.0
    assert apply_p2(c, 0.0) == 0.0
    cs = solve_cqt(Activation.sigmoid(), 0.0)
    assert apply_p2(cs, 1.0) == pytest.approx(0.0, abs=1e-8)  # y^2 - y at 1
    y = np.array([-1.0, 0.5, 2.0])
    assert np.allclose(apply_p3(c, y), y**3 - 3 * y)


def test_check_conditions_linear():
    c = solve_cqt(Activation.linear(), 0.0)
    rep = check_conditions(c)
    assert rep.s3_d1 == pytest.approx(0.0, abs=1e-12)
    assert rep.s3_d2 == pytest.approx(0.0, abs=1e-12)
    assert rep.s3_d3 == pytest.approx(6.0)
    assert rep.satisfied()
    for sigma in (0.1, 0.7):
        assert check_conditions(solve_cqt(Activation.linear(), sigma)).s2_d2 == pytest.approx(2.0)


def test_check_conditions_sigmoid_doubled_order_oracle():
    c = solve_cqt(Activation.sigmoid(), 0.1)
    rep = check_conditions(c)
    assert abs(rep.s3_d1) <= 1e-8
    assert abs(rep.s3_d2) <= 1e-8
    assert abs(rep.s2_d1) <= 1e-8
    assert all(err <= 1e-9 for err in rep.errors.values())


def test_check_conditions_relu_adaptive_oracle():
    c = solve_cqt(Activation.relu(), 0.2)
    rep = check_conditions(c)
    assert abs(rep.s3_d1) <= 1e-12
    assert abs(rep.s3_d2) <= 1e-12
    assert abs(rep.s2_d1) <= 1e-12
    assert all(err <= 1e-8 for err in rep.errors.values())


def test_invalid_activation_raises_with_condition_name():
    flat = Activation.custom("flat", (
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    ))
    with pytest.raises(NumericalError, match=r"^activation 'flat' not valid at sigma=0\.1: "
                       "coefficient system is singular$"):
        solve_cqt(flat, 0.1)
    # at a large sigma the system's rounding leaves the first condition unmet
    with pytest.raises(NumericalError, match=r"^activation 'linear' not valid at "
                       r"sigma=100000000\.0: first condition E\[S3'\]=E\[S3''\]=0 violated"):
        solve_cqt(Activation.linear(), 1e8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["linear", "sigmoid", "relu"])
def test_sigma_whose_terms_overflow_is_refused_by_name(name):
    """At sigma = 1e154 the 3 sigma**2 terms of the system overflow, so alpha
    and beta are not finite. A NaN compares False with any tolerance, so
    such coefficients are refused by name, before any numpy warning."""
    with pytest.raises(NumericalError, match=rf"^activation '{name}' not valid at "
                       r"sigma=1e\+154: coefficients \(alpha, beta, gamma\) = .* are not finite$"):
        solve_cqt(Activation.by_name(name), 1e154)


def test_custom_activation_tanh_is_valid():
    # tanh is odd: E[g g'] = 0 so gamma = 0; the cubic system still solves
    tanh = Activation.custom("tanh", (
        np.tanh,
        lambda t: 1 - np.tanh(t) ** 2,
        lambda t: -2 * np.tanh(t) * (1 - np.tanh(t) ** 2),
        lambda t: (1 - np.tanh(t) ** 2) * (6 * np.tanh(t) ** 2 - 2),
    ))
    c = solve_cqt(tanh, 0.1)
    assert c.gamma == pytest.approx(0.0, abs=1e-10)
    rep = check_conditions(c)
    assert rep.satisfied()
    assert abs(c.c3) > 1e-3


def test_gaussian_expectation_polynomial_exactness():
    # order-80 rule integrates low-degree polynomials to machine precision
    assert gaussian_expectation(lambda z: z**6) == pytest.approx(15.0, rel=1e-13)
    assert gaussian_expectation(lambda z: z**8) == pytest.approx(105.0, rel=1e-13)


def test_gauss_hermite_port_has_hermegauss_bits():
    """The in-package port equals numpy.polynomial's hermegauss bit for bit,
    nodes and weights, at every order from 1 to 200 (numpy.polynomial is the
    oracle here only)."""
    for order in range(1, 201):
        z, w = gauss_hermite.__wrapped__(order)
        z_ref, w_ref = np.polynomial.hermite_e.hermegauss(order)
        assert z.tobytes() == z_ref.tobytes(), order
        assert w.tobytes() == (w_ref / math.sqrt(2.0 * math.pi)).tobytes(), order
