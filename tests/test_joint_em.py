import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from moelearn import (Activation, ExperimentConfig, InputDistribution, joint_em,
                      run_joint_em, sample_dataset)
from moelearn.errors import ConfigError, NumericalError
from moelearn.metrics import param_error_min_gauge
from moelearn.experiments import run_trial
from moelearn.joint_em import (_TANGENT_TOL, _expert_step_nonlinear, _secular_root,
                               _sphere_weighted_ls)

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


_scale = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=30).flatmap(lambda d: st.tuples(
    hnp.arrays(float, d, elements=st.floats(min_value=1e-3, max_value=10.0)),
    hnp.arrays(float, d, elements=st.floats(min_value=-3.0, max_value=3.0)))),
    _scale, _scale)
def test_secular_root_is_scipys_brentq_root(case, h_scale, b_scale):
    """On secular equations of the sphere solve (d 2-30, the spectrum and
    b scaled over 1e-2-1e2) Newton's method from the sphere solve's start
    finds scipy's brentq root to 1e-13 max(1, |nu|) within its 100 steps."""
    evals, beta = np.sort(case[0]) * h_scale, case[1] * b_scale
    f = lambda nu: float(np.sum((beta / (evals + nu)) ** 2)) - 1.0   # noqa: E731
    lo = -evals[0] + 1e-12 * max(evals[0], 1.0)
    assume(f(lo) >= 0.0)   # otherwise the hard case, where no root is sought
    # ||beta / (evals + nu)|| <= ||beta|| / (evals[0] + nu), so f <= -3/4 there
    hi = -evals[0] + 2.0 * np.linalg.norm(beta)
    expected = brentq(f, lo, hi, xtol=1e-14, rtol=1e-14)
    root = _secular_root(evals, beta, float(lo))
    assert type(root) is float
    assert abs(root - expected) <= 1e-13 * max(1.0, abs(root))


@pytest.mark.parametrize("h, b, nu", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([0.3, 0.2]), "nu=nan"),
    (2.0 * np.eye(2), np.array([np.inf, 0.2]), "nu=-1.999999999998"),
    # lo = -lambda_min rounds onto the pole of the bottom eigenvalue
    (np.diag([-1.5e18, 1.0]), np.array([1e18, 0.0]), "nu=1.5e+18"),
], ids=["nan-h", "inf-b", "pole-at-lo"])
def test_sphere_solve_of_bad_input_is_numerical_error(h, b, nu):
    """Non-finite input, or a start on a pole of the secular equation, is a
    NumericalError that names the solve and prints nu as a float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="^sphere solve: the secular equation is not "
                           f"finite at {re.escape(nu)}$"):
            _sphere_weighted_ls(h, b)


def test_joint_em_stays_near_truth_when_started_there():
    model = make_model(50, k=3, d=8, sigma=0.3)
    dist = InputDistribution.standard_gaussian(8)
    data = sample_dataset(model, dist, 60000, seed=51)
    st = run_joint_em(data.x, data.y, 3, 0.3, model.activation, seed=0,
                      a0=model.a, w0=model.w, max_iters=50, eps=0.0)
    err, _ = param_error_min_gauge(st.a, st.w, model.a, model.w)
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


@st.composite
def _expert_step_cases(draw):
    """(activation name, x, y, weights, unit start), weights possibly exactly 0."""
    name = draw(st.sampled_from(["sigmoid", "relu"]))
    n, d = draw(st.integers(min_value=1, max_value=40)), draw(st.integers(min_value=1, max_value=6))
    x = draw(hnp.arrays(float, (n, d), elements=_finite))
    y = draw(hnp.arrays(float, n, elements=_finite))
    weights = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    start = draw(hnp.arrays(float, d, elements=_finite).filter(
        lambda a: np.linalg.norm(a) > 1e-3))
    return name, x, y, weights, start / np.linalg.norm(start)


_X = np.random.default_rng(63).standard_normal((40, 3))
_A = np.array([0.6, 0.0, 0.8])


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(_expert_step_cases())
# the first Gauss-Newton target is near _A, antipodal to the start, so the
# chord passes near zero
@example(("sigmoid", _X, Activation.sigmoid()(_X @ _A), np.ones(40), -_A))
@example(("relu", _X, Activation.relu()(_X @ _A), np.ones(40), -_A))
# all-zero weights
@example(("sigmoid", _X, _X[:, 0], np.zeros(40), _A))
# every ReLU row inactive (h = 0)
@example(("relu", -np.abs(_X), _X[:, 1], np.ones(40), _A))
def test_expert_step_stays_on_the_sphere_and_ascends(case):
    """From a unit start the sphere step returns a unit row whose weighted
    objective is at least the start's, with numpy warnings as errors."""
    name, x, y, weights, start = case
    activation = Activation.by_name(name)
    a = _expert_step_nonlinear(x, y, weights, start, activation, 0.04)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert (_expert_objective(x, y, weights, a, activation, 0.04)
            >= _expert_objective(x, y, weights, start, activation, 0.04))


@pytest.mark.filterwarnings("error")
def test_expert_step_rejects_a_zero_chord_point(monkeypatch):
    """With the start's antipode as the Gauss-Newton target, the chord's
    midpoint is the origin: it is refused, not divided by its zero norm, and
    the step still returns a unit row that scores at least its start."""
    start = _A + 0.3 * np.array([0.0, 1.0, 0.0])
    start /= np.linalg.norm(start)
    sigmoid = Activation.sigmoid()
    y = sigmoid(_X @ _A)
    before = _expert_objective(_X, y, np.ones(40), start, sigmoid, 0.04)
    # so the whole chord, -start, is refused and the search reaches the midpoint
    assert _expert_objective(_X, y, np.ones(40), -start, sigmoid, 0.04) < before
    monkeypatch.setattr(joint_em, "_sphere_weighted_ls", lambda h, b: (-start, False))
    a = _expert_step_nonlinear(_X, y, np.ones(40), start, sigmoid, 0.04)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert _expert_objective(_X, y, np.ones(40), a, sigmoid, 0.04) >= before


def test_sigmoid_joint_em_expert_steps_end_within_tolerance(monkeypatch):
    """On one sigmoid joint-EM trial of the nonlinear suite's shape (k = 3,
    d = 5, n = 10,000, sigma = 0.1), every expert step ends with its tangent
    gradient within _TANGENT_TOL of max(1, |objective|). Capped projected
    gradient ascent left 28 of these 126 calls above it."""
    ends = []

    def checked(x, y, weights, a_init, activation, sigma2):
        a = _expert_step_nonlinear(x, y, weights, a_init, activation, sigma2)
        t = x @ a
        grad = ((weights * (y - activation(t)) * activation(t, 1)) @ x) / sigma2
        scale = max(1.0, abs(_expert_objective(x, y, weights, a, activation, sigma2)))
        ends.append(np.linalg.norm(grad - (grad @ a) * a) / scale)
        return a

    monkeypatch.setattr(joint_em, "_expert_step_nonlinear", checked)
    cfg = ExperimentConfig(experiment="nonlinear", k=3, d=5, sigma=0.1, n=10000,
                           orthogonal=False, dist={"kind": "gaussian"}, activation="sigmoid",
                           algo="joint-em", seed=13)
    run_trial(cfg, 0)
    assert len(ends) > 100
    assert max(ends) <= _TANGENT_TOL


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
