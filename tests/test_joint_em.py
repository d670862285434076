import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moelearn import (Activation, InputDistribution, param_error, run_joint_em,
                      sample_dataset)
from moelearn.errors import ConfigError
from moelearn.joint_em import _TANGENT_TOL, _expert_step_nonlinear, _sphere_weighted_ls

from conftest import make_model


def test_sphere_weighted_ls_is_constrained_optimum():
    rng = np.random.default_rng(0)
    for trial in range(20):
        d = rng.integers(2, 7)
        m = rng.standard_normal((d + 2, d))
        h = m.T @ m
        b = rng.standard_normal(d)
        a, _ = _sphere_weighted_ls(h, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
        obj = a @ h @ a - 2 * b @ a
        # KKT: (h + nu I) a = b for some nu >= -lambda_min
        resid = h @ a - b
        nu = -float(resid @ a)
        evals = np.linalg.eigvalsh(h)
        assert nu >= -evals[0] - 1e-8
        assert np.linalg.norm(resid + nu * a) <= 1e-8 * max(1.0, np.linalg.norm(b))
        # no random unit vector does better
        probes = rng.standard_normal((2000, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        vals = np.einsum("nd,de,ne->n", probes, h, probes) - 2 * probes @ b
        assert obj <= vals.min() + 1e-9


def test_sphere_weighted_ls_hard_case():
    # b orthogonal to the bottom eigenvector: solution pads with that direction
    h = np.diag([0.5, 2.0, 3.0])
    b = np.array([0.0, 0.2, 0.1])
    a, _ = _sphere_weighted_ls(h, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-10)
    direct = a @ h @ a - 2 * b @ a
    grid = np.random.default_rng(1).standard_normal((5000, 3))
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    vals = np.einsum("nd,de,ne->n", grid, h, grid) - 2 * grid @ b
    assert direct <= vals.min() + 1e-6


def test_joint_em_stays_near_truth_when_started_there():
    model = make_model(50, k=3, d=8, sigma=0.3)
    dist = InputDistribution.standard_gaussian(8)
    data = sample_dataset(model, dist, 60000, seed=51)
    st = run_joint_em(data.x, data.y, 3, 0.3, model.activation, seed=0,
                      a0=model.a, w0=model.w, max_iters=50, eps=0.0)
    err, _ = param_error(st.a, st.w, model.a, model.w)
    assert err < 0.1


def test_joint_em_loglik_monotone_and_deterministic():
    model = make_model(52, k=3, d=6, sigma=0.4)
    dist = InputDistribution.standard_gaussian(6)
    data = sample_dataset(model, dist, 4000, seed=53)
    st1 = run_joint_em(data.x, data.y, 3, 0.4, model.activation, seed=9, max_iters=40)
    lls = st1.loglik_sequence()
    assert all(lls[i + 1] >= lls[i] - 1e-8 for i in range(len(lls) - 1))
    st2 = run_joint_em(data.x, data.y, 3, 0.4, model.activation, seed=9, max_iters=40)
    assert np.array_equal(st1.a, st2.a)
    assert np.array_equal(st1.w, st2.w)
    st3 = run_joint_em(data.x, data.y, 3, 0.4, model.activation, seed=10, max_iters=40)
    assert not np.array_equal(st1.a, st3.a)


def test_joint_em_nonlinear_expert_step_monotone():
    model = make_model(54, k=2, d=5, sigma=0.2, activation="sigmoid")
    dist = InputDistribution.standard_gaussian(5)
    data = sample_dataset(model, dist, 3000, seed=55)
    st = run_joint_em(data.x, data.y, 2, 0.2, model.activation, seed=1, max_iters=30)
    lls = st.loglik_sequence()
    assert all(lls[i + 1] >= lls[i] - 1e-8 for i in range(len(lls) - 1))
    assert np.allclose(np.linalg.norm(st.a, axis=1), 1.0, atol=1e-9)


def test_joint_em_relu_runs_and_keeps_unit_rows():
    model = make_model(56, k=2, d=5, sigma=0.2, activation="relu")
    dist = InputDistribution.standard_gaussian(5)
    data = sample_dataset(model, dist, 3000, seed=57)
    st = run_joint_em(data.x, data.y, 2, 0.2, model.activation, seed=1, max_iters=25)
    assert np.allclose(np.linalg.norm(st.a, axis=1), 1.0, atol=1e-9)
    lls = st.loglik_sequence()
    assert all(lls[i + 1] >= lls[i] - 1e-8 for i in range(len(lls) - 1))


def test_joint_em_requires_two_experts():
    with pytest.raises(ConfigError):
        run_joint_em(np.zeros((10, 3)), np.zeros(10), 1, 0.1, Activation.linear())


def test_joint_em_records_diagnostics():
    model = make_model(58, k=2, d=4, sigma=0.3)
    dist = InputDistribution.standard_gaussian(4)
    data = sample_dataset(model, dist, 2000, seed=59)
    st = run_joint_em(data.x, data.y, 2, 0.3, model.activation, seed=2, max_iters=10,
                      eps=0.0)
    assert len(st.trace) == len(st.iterates) == 10
    assert all(a.shape == (2, 4) and w.shape == (1, 4) for a, w in st.iterates)
    assert np.array_equal(st.iterates[-1][0], st.a)
    assert np.array_equal(st.iterates[-1][1], st.w)
    assert not st.ridge_flagged


def _expert_objective(x, y, weights, a, activation, sigma2):
    return float(-0.5 * np.sum(weights * (y - activation(x @ a)) ** 2) / sigma2)


def _counting(activation):
    """``activation`` with a list that gets one entry per evaluation of g."""
    calls = []
    g = activation.derivatives[0]

    def counted(t):
        calls.append(None)
        return g(t)

    return Activation.custom(f"counted {activation.name}",
                             (counted, *activation.derivatives[1:])), calls


_finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sigmoid", "relu"]), st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=6), st.data())
def test_expert_step_stays_on_the_sphere_and_ascends(name, n, d, data):
    """From a unit start the sphere step returns a unit row whose weighted
    objective is at least the start's, with weights that may be exactly 0."""
    x = data.draw(hnp.arrays(float, (n, d), elements=_finite))
    y = data.draw(hnp.arrays(float, n, elements=_finite))
    weights = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    start = data.draw(hnp.arrays(float, d, elements=_finite).filter(
        lambda a: np.linalg.norm(a) > 1e-3))
    start /= np.linalg.norm(start)
    activation = Activation.by_name(name)
    a = _expert_step_nonlinear(x, y, weights, start, activation, 0.04)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert (_expert_objective(x, y, weights, a, activation, 0.04)
            >= _expert_objective(x, y, weights, start, activation, 0.04))


def test_expert_step_returns_at_once_where_the_sphere_is_stationary():
    """Where the tangent gradient is within tolerance but the full gradient is
    not, as at the end point of an earlier step, the step scores its start
    and returns it. A test on the full gradient never fires there and ends
    only after a failed search of some 50 evaluations."""
    model = make_model(60, k=2, d=5, sigma=0.2, activation="sigmoid")
    data = sample_dataset(model, InputDistribution.standard_gaussian(5), 2000, seed=61)
    weights = np.random.default_rng(62).random(2000)
    sigma2 = 0.04
    a = _expert_step_nonlinear(data.x, data.y, weights, model.a[0], model.activation, sigma2)
    t = data.x @ a
    grad = ((weights * (data.y - model.activation(t)) * model.activation(t, 1)) @ data.x) / sigma2
    scale = max(1.0, abs(_expert_objective(data.x, data.y, weights, a, model.activation, sigma2)))
    assert np.linalg.norm(grad - (grad @ a) * a) <= _TANGENT_TOL * scale
    assert np.linalg.norm(grad) > 1e3 * _TANGENT_TOL * scale
    counted, calls = _counting(model.activation)
    again = _expert_step_nonlinear(data.x, data.y, weights, a, counted, sigma2)
    assert len(calls) <= 2
    assert np.array_equal(again, a)
