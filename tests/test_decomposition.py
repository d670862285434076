import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelearn import (Activation, CqtCoefficients, Sym3, power_method,
                      recover_regressors, regressor_fit, solve_cqt, whiten)
from moelearn.errors import NumericalError
from moelearn.model import make_rng

from conftest import unit_rows


def _rank1(v):
    return np.einsum("a,b,c->abc", v, v, v)


def test_whiten_identity_and_diagonal():
    wm = whiten(np.eye(3), 3)
    assert np.allclose(wm.w_map.T @ np.eye(3) @ wm.w_map, np.eye(3), atol=1e-12)
    t2 = np.diag([2.0, 1.0, 0.0])
    wm = whiten(t2, 2)
    # columns are e1/sqrt(2) and e2 up to sign
    assert abs(abs(wm.w_map[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(abs(wm.w_map[1, 1]) - 1.0) < 1e-12
    assert np.allclose(wm.w_map.T @ t2 @ wm.w_map, np.eye(2), atol=1e-12)


def test_whiten_orthonormalizes_scaled_regressors():
    rng = np.random.default_rng(7)
    d, k = 6, 3
    a = unit_rows(rng, k, d)
    s = np.array([1.5, 0.9, 0.4])
    t2 = sum(s[i] * np.outer(a[i], a[i]) for i in range(k))
    wm = whiten(t2, k)
    tilde = (wm.w_map.T @ a.T) * np.sqrt(s)   # columns sqrt(s_i) W^T a_i
    assert np.allclose(tilde.T @ tilde, np.eye(k), atol=1e-8)
    assert np.linalg.norm(wm.w_map.T @ t2 @ wm.w_map - np.eye(k)) <= 1e-8
    # back projection inverts the whitening on the signal subspace
    assert np.allclose(wm.pseudo_inverse_transpose @ wm.w_map.T @ a[0], a[0], atol=1e-10)


def test_whiten_rank_deficiency_error():
    t2 = np.outer(np.ones(4), np.ones(4))
    with pytest.raises(NumericalError, match="rank deficient"):
        whiten(t2, 2)


def test_whiten_eigenvalue_ordering():
    rng = np.random.default_rng(1)
    a = unit_rows(rng, 3, 5)
    t2 = sum(s * np.outer(v, v) for s, v in zip([0.3, 2.0, 1.1], a))
    wm = whiten(t2, 3)
    assert np.all(np.diff(wm.eigenvalues) <= 1e-12)   # descending


def test_power_method_single_and_orthogonal():
    d = 3
    e = np.eye(d)
    res = power_method(5 * _rank1(e[0]), 1, restarts=5, iterations=30, seed=0)
    assert res.eigenvalues[0] == pytest.approx(5.0, abs=1e-10)
    assert abs(abs(res.vectors[0] @ e[0]) - 1) < 1e-10

    t = 3 * _rank1(e[0]) + 2 * _rank1(e[1])
    res = power_method(t, 2, restarts=10, iterations=40, seed=1)
    assert np.allclose(res.eigenvalues, [3.0, 2.0], atol=1e-9)
    assert abs(res.vectors[0] @ e[0]) == pytest.approx(1.0, abs=1e-9)
    assert abs(res.vectors[1] @ e[1]) == pytest.approx(1.0, abs=1e-9)
    assert res.deflation_norms[0] >= res.deflation_norms[1] - 1e-12


def test_power_method_perturbation_robustness():
    rng = np.random.default_rng(3)
    k = 4
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lams = np.array([4.0, 3.0, 2.0, 1.0])
    t = sum(l * _rank1(q[:, i]) for i, l in enumerate(lams))
    eps = 1e-3
    noise = rng.standard_normal((k, k, k))
    noise = sum(noise.transpose(p) for p in
                [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6
    noise *= eps / np.linalg.norm(noise)
    res = power_method(t + noise, k, restarts=30, iterations=60, seed=5)
    for i in range(k):
        errs = [min(np.linalg.norm(res.vectors[i] - q[:, j]),
                    np.linalg.norm(res.vectors[i] + q[:, j])) for j in range(k)]
        assert min(errs) <= 10 * eps


def test_power_method_residual_shows_an_unconverged_fixed_point():
    """Each component's residual ||T(I,v,v) - lambda v|| is taken on the
    tensor it was found in. On an exactly orthogonally decomposable tensor
    the iteration converges quadratically, so ten steps reach rounding level;
    a perturbation of the eigenvalues' size leaves the tensor without that
    structure, the iteration converges only linearly and the residual shows
    it."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    t = sum(lam * _rank1(q[:, i]) for i, lam in enumerate([3.0, 2.0, 1.0]))
    g = rng.standard_normal((3, 3, 3))
    noise = sum(g.transpose(p) for p in itertools.permutations(range(3))) / 6
    exact = power_method(t, 3, restarts=30, iterations=10, seed=0)
    assert len(exact.residuals) == 3
    assert max(exact.residuals) < 1e-12
    perturbed = power_method(t + noise, 3, restarts=30, iterations=10, seed=0)
    assert max(perturbed.residuals) > 1e-12
    # the first component is found in the undeflated tensor
    one = power_method(t + noise, 1, restarts=30, iterations=10, seed=0)
    v, lam = one.vectors[0], one.eigenvalues[0]
    direct = np.linalg.norm(np.einsum("abc,b,c->a", t + noise, v, v) - lam * v)
    assert one.residuals[0] > 1e-12
    assert one.residuals[0] == pytest.approx(direct, rel=1e-9, abs=1e-14)


def test_recover_exact_population_tensors():
    rng = np.random.default_rng(11)
    d, k = 10, 3
    a = unit_rows(rng, k, d)
    pbar = np.array([0.2, 0.3, 0.5])
    t2 = 2 * sum(pbar[i] * np.outer(a[i], a[i]) for i in range(k))
    t3 = Sym3.from_dense(6 * sum(pbar[i] * _rank1(a[i]) for i in range(k)))
    cqt = solve_cqt(Activation.linear(), 0.0)
    dec = recover_regressors(t2, t3, k, cqt, seed=2)
    fit, perm, _ = regressor_fit(dec.vectors, a)
    assert fit >= 1 - 1e-6
    for i in range(k):
        assert np.linalg.norm(dec.vectors[perm[i]] - a[i]) <= 1e-6   # sign included
    matched = sorted(zip(dec.weights, range(k)))
    assert np.allclose(sorted(dec.weights), sorted(6 * pbar), atol=1e-8)
    assert dec.to_dict()["residual"] == dec.power.deflation_norms[-1] <= 1e-8
    assert np.all(dec.weights > 0)


def test_recover_handles_negative_tensor_scale():
    # synthetic activation scale c3 < 0: tensors flip sign but the recovered
    # regressors keep the +a_i orientation
    rng = np.random.default_rng(13)
    d, k = 6, 2
    a = unit_rows(rng, k, d)
    pbar = np.array([0.4, 0.6])
    cqt = CqtCoefficients(alpha=0.0, beta=0.0, gamma=0.0, sigma=0.0,
                          activation=Activation.linear(), c3=-6.0, c2=2.0)
    t2 = 2 * sum(pbar[i] * np.outer(a[i], a[i]) for i in range(k))
    t3 = Sym3.from_dense(-6 * sum(pbar[i] * _rank1(a[i]) for i in range(k)))
    dec = recover_regressors(t2, t3, k, cqt, seed=3)
    _, perm, _ = regressor_fit(dec.vectors, a)
    for i in range(k):
        assert np.linalg.norm(dec.vectors[perm[i]] - a[i]) <= 1e-8
    assert np.all(dec.weights > 0)


def test_restart_seed_invariance_for_separated_eigenvalues():
    rng = np.random.default_rng(17)
    d, k = 8, 3
    a = unit_rows(rng, k, d)
    pbar = np.array([0.5, 0.3, 0.2])
    t2 = 2 * sum(pbar[i] * np.outer(a[i], a[i]) for i in range(k))
    t3 = Sym3.from_dense(6 * sum(pbar[i] * _rank1(a[i]) for i in range(k)))
    cqt = solve_cqt(Activation.linear(), 0.0)
    d1 = recover_regressors(t2, t3, k, cqt, seed=100)
    d2 = recover_regressors(t2, t3, k, cqt, seed=200)
    assert np.allclose(d1.vectors, d2.vectors, atol=1e-8)
    assert np.allclose(d1.weights, d2.weights, atol=1e-8)


def test_recover_rejects_k_above_dimension():
    cqt = solve_cqt(Activation.linear(), 0.0)
    t2 = np.eye(3)
    t3 = Sym3(3, np.zeros(10))
    with pytest.raises(NumericalError):
        recover_regressors(t2, t3, 4, cqt, seed=0)


def test_power_method_weak_component_flag():
    e = np.eye(3)
    t = 5 * _rank1(e[0])    # rank one, but two components requested
    with pytest.warns(RuntimeWarning):
        res = power_method(t, 2, restarts=5, iterations=30, seed=0)
    assert res.weak_flags


def _power_method_searching_paths(t3, n_components, restarts, iterations, seed):
    """The power method with numpy choosing each contraction order per call
    (``optimize=True``): the reference for power_method. Also returns each
    component's relative fixed-point residual ||T(I,v,v) - lambda v|| / lambda."""
    t = np.array(t3, dtype=float)
    m = t.shape[0]
    rng = make_rng(seed)
    vectors, eigenvalues, norms = np.zeros((n_components, m)), np.zeros(n_components), []
    relative_residuals = []
    for comp in range(n_components):
        theta = rng.standard_normal((restarts, m))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        for _ in range(iterations):
            theta = np.einsum("abc,lb,lc->la", t, theta, theta, optimize=True)
            nrm = np.linalg.norm(theta, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            theta /= nrm
        lam = np.einsum("abc,la,lb,lc->l", t, theta, theta, theta, optimize=True)
        v = theta[int(np.argmax(lam))]
        for _ in range(iterations):
            v_new = np.einsum("abc,b,c->a", t, v, v, optimize=True)
            nrm = np.linalg.norm(v_new)
            if nrm == 0:
                break
            v = v_new / nrm
        lam_v = float(np.einsum("abc,a,b,c->", t, v, v, v, optimize=True))
        if lam_v < 0:
            v, lam_v = -v, -lam_v
        vectors[comp], eigenvalues[comp] = v, lam_v
        relative_residuals.append(float(np.linalg.norm(
            np.einsum("abc,b,c->a", t, v, v) - lam_v * v)) / max(lam_v, 1e-300))
        t = t - lam_v * np.einsum("a,b,c->abc", v, v, v)
        norms.append(float(np.linalg.norm(t)))
    order = np.argsort(-eigenvalues, kind="stable")
    return vectors[order], eigenvalues[order], norms, relative_residuals


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.0, max_value=1.0))
@example(k=3, restarts=2, iterations=50, seed=0, noise=0.0)
@example(k=4, restarts=3, iterations=40, seed=0, noise=0.1)
@example(k=5, restarts=5, iterations=50, seed=0, noise=0.2)
@example(k=2, restarts=1, iterations=30, seed=1, noise=0.3)
def test_power_method_bitwise_matches_per_call_path_search(k, restarts, iterations, seed,
                                                           noise):
    """Random symmetric tensors: an orthogonal rank-k part plus symmetrised noise.

    With restarts > k >= 2, every shape the benchmark runs, the planner's
    restart step is the one contraction power_method calls, and the results
    have the reference's bits; so do they at k = 1, where each contraction
    has one term. With restarts <= k the planner contracts in two steps, so
    each restart step rounds otherwise. Where every component of the
    reference converged (relative residual at most 1e-8) the results then
    agree within 1e-12; the examples are such draws. Where one did not, the
    fixed-point map amplifies that rounding from step to step and no
    tolerance holds, so those draws check only the output's form."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
    t = sum(rng.uniform(0.2, 3.0) * _rank1(basis[:, i]) for i in range(k))
    g = rng.standard_normal((k, k, k))
    t = t + noise * sum(g.transpose(p) for p in itertools.permutations(range(3))) / 6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # weak-component flags
        got = power_method(t, k, restarts=restarts, iterations=iterations, seed=seed)
    vectors, eigenvalues, norms, relative_residuals = _power_method_searching_paths(
        t, k, restarts, iterations, seed)
    if restarts > k or k == 1:
        assert np.array_equal(got.vectors, vectors)
        assert np.array_equal(got.eigenvalues, eigenvalues)
        assert got.deflation_norms == norms
    elif max(relative_residuals) <= 1e-8:
        np.testing.assert_allclose(got.vectors, vectors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.eigenvalues, eigenvalues, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.deflation_norms, norms, rtol=1e-12, atol=1e-12)
    else:
        np.testing.assert_allclose(np.linalg.norm(got.vectors, axis=1), 1.0, rtol=1e-12)
        assert np.all(np.diff(got.eigenvalues) <= 0)
