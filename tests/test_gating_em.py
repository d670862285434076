import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelearn import (Activation, InputDistribution, gating_fit, run_em,
                      run_gradient_em, run_joint_em, sample_dataset)
from moelearn import gating_em
from moelearn.errors import ConfigError, NumericalError
from moelearn.gating_em import (default_gradient_step, e_step,
                                em_curvature_constants, m_step, q_gradient,
                                q_value, random_gating_init, row_metric)
from moelearn.model import exp_pass, make_rng

from conftest import make_model, unit_rows


def test_e_step_identical_regressors_returns_prior():
    rng = np.random.default_rng(0)
    d, n = 4, 200
    a = unit_rows(rng, 1, d)
    regressors = np.vstack([a, a, a])
    w = rng.standard_normal((2, d)) * 0.5
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    res = e_step(x, y, regressors, w, sigma=0.3, activation=Activation.linear())
    logits = np.hstack([x @ w.T, np.zeros((n, 1))])
    prior = np.exp(logits - logits.max(axis=1, keepdims=True))
    prior /= prior.sum(axis=1, keepdims=True)
    assert np.allclose(res.posteriors, prior, atol=1e-12)


def test_e_step_two_expert_hand_value():
    # y equals the first expert output, outputs one apart: p1 = 1/(1+e^{-1/(2s^2)})
    sigma = 0.4
    x = np.array([[1.0, 0.0]])
    regressors = np.eye(2)
    y = np.array([1.0])
    x_val = np.array([[1.0, 0.0]])
    # g(a1.x) = 1, g(a2.x) = 0
    res = e_step(x_val, y, regressors, np.zeros((1, 2)), sigma, Activation.linear())
    expected = 1.0 / (1.0 + np.exp(-1.0 / (2 * sigma**2)))
    assert res.posteriors[0, 0] == pytest.approx(expected, abs=1e-12)


def test_e_step_single_expert_and_sigma_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    a = unit_rows(rng, 1, 3)
    res = e_step(x, x @ a[0], a, np.zeros((0, 3)), 0.2, Activation.linear())
    assert np.all(res.posteriors == 1.0)

    regressors = np.eye(3)[:2]
    y = x @ regressors[0]
    res0 = e_step(x, y, regressors, np.zeros((1, 3)), 0.0, Activation.linear())
    assert res0.hard_assignment
    assert set(np.unique(res0.posteriors)) <= {0.0, 1.0}


def test_posterior_rows_normalized():
    rng = np.random.default_rng(3)
    model = make_model(5, k=4, d=6, sigma=0.3)
    data = sample_dataset(model, InputDistribution.standard_gaussian(6), 500, seed=2)
    res = e_step(data.x, data.y, model.a, model.w, 0.3, model.activation)
    assert np.allclose(res.posteriors.sum(axis=1), 1.0, atol=1e-10)
    assert np.all((res.posteriors >= 0) & (res.posteriors <= 1))


def test_e_step_permutation_equivariance():
    rng = np.random.default_rng(4)
    model = make_model(6, k=4, d=5, sigma=0.25)
    data = sample_dataset(model, InputDistribution.standard_gaussian(5), 300, seed=3)
    base = e_step(data.x, data.y, model.a, model.w, 0.25, model.activation)
    perm = [2, 0, 1]   # permute the first k-1 experts, keep the pinned one
    a_p = np.vstack([model.a[perm], model.a[3:]])
    w_p = model.w[perm]
    permuted = e_step(data.x, data.y, a_p, w_p, 0.25, model.activation)
    assert np.allclose(permuted.posteriors[:, :3], base.posteriors[:, perm], atol=1e-12)
    assert permuted.loglik == pytest.approx(base.loglik, abs=1e-12)


def test_e_step_matches_direct_bayes_computation():
    # direct (non-log) posterior oracle on a small instance
    rng = np.random.default_rng(9)
    k, d, n, sigma = 3, 4, 60, 0.35
    a = unit_rows(rng, k, d)
    w = rng.standard_normal((k - 1, d)) * 0.6
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    act = Activation.sigmoid()
    res = e_step(x, y, a, w, sigma, act)
    logits = np.hstack([x @ w.T, np.zeros((n, 1))])
    prior = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    dens = np.exp(-0.5 * (y[:, None] - act(x @ a.T)) ** 2 / sigma**2)
    dens /= np.sqrt(2 * np.pi) * sigma
    joint = prior * dens
    direct = joint / joint.sum(axis=1, keepdims=True)
    assert np.allclose(res.posteriors, direct, atol=1e-12)
    assert res.loglik == pytest.approx(float(np.mean(np.log(joint.sum(axis=1)))), abs=1e-12)


def test_m_step_symmetric_uniform_posteriors_gives_zero():
    rng = np.random.default_rng(5)
    half = rng.standard_normal((300, 4))
    x = np.vstack([half, -half])          # exactly symmetric sample
    posteriors = np.full((600, 3), 1.0 / 3.0)
    w = m_step(x, posteriors, rng.standard_normal((2, 4)) * 0.3, radius=1.0)
    assert np.linalg.norm(w) <= 1e-4


def test_m_step_separable_pins_row_to_radius():
    rng = np.random.default_rng(6)
    u = np.array([1.0, 0.0, 0.0])
    x = u + 0.05 * rng.standard_normal((400, 3))
    posteriors = np.zeros((400, 2))
    posteriors[:, 0] = 1.0                 # always the first expert
    w = m_step(x, posteriors, np.zeros((1, 3)), radius=1.0)
    assert np.linalg.norm(w[0]) == pytest.approx(1.0, abs=1e-9)
    assert w[0] @ u > 0.9


def test_m_step_is_ascent():
    rng = np.random.default_rng(7)
    model = make_model(8, k=3, d=5, sigma=0.3)
    data = sample_dataset(model, InputDistribution.standard_gaussian(5), 800, seed=6)
    res = e_step(data.x, data.y, model.a, model.w, 0.3, model.activation)
    w0 = rng.standard_normal((2, 5)) * 0.4
    w1 = m_step(data.x, res.posteriors, w0, radius=1.0)
    assert q_value(data.x, res.posteriors, w1) >= q_value(data.x, res.posteriors, w0)


# The M-step before it shared each point's logits between Q and the gradient,
# with the package softmax/log-sum-exp written as the axis-1 numpy formulas
# and np.linalg.norm/np.mean/np.sum in place of their direct forms: the
# reference for m_step. It is bitwise where the benchmark runs, with at most
# two gating rows (the linear term) and seven softmax columns (the softmax
# sum). Elsewhere the package adds those terms in another order, and Q and
# its gradient agree with the reference within these tolerances: each is a
# sum of at most ten terms, which a reordering moves by a few ulp of the
# largest.
_Q_TOL = {"rel": 1e-12, "abs": 1e-12}
_GRADIENT_TOL = {"rtol": 1e-12, "atol": 1e-12}


def _assert_gradient_matches(grad, ref, bitwise):
    if bitwise:
        assert np.array_equal(grad, ref)
    else:
        np.testing.assert_allclose(grad, ref, **_GRADIENT_TOL)


def _ref_q_value(x, posteriors, w):
    logits = x @ w.T
    linear = np.einsum("ni,ni->n", posteriors[:, :-1], logits)
    m = np.maximum(logits.max(axis=1), 0.0)
    lse = m + np.log(np.exp(-m) + np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(linear - lse))


def _ref_q_gradient(x, posteriors, w):
    full = np.hstack([x @ w.T, np.zeros((x.shape[0], 1))])
    e = np.exp(full - full.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return (posteriors[:, :-1] - probs[:, :-1]).T @ x / x.shape[0]


def _ref_project_rows(w, radius):
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    return w * np.minimum(1.0, radius / np.maximum(norms, 1e-300))


def _ref_projected_gradient_norm(w, grad, radius):
    pg = grad.copy()
    norms = np.linalg.norm(w, axis=1)
    for i in np.flatnonzero(norms >= radius * (1 - 1e-12)):
        radial = float(grad[i] @ w[i])
        if radial > 0:
            pg[i] = grad[i] - (radial / max(norms[i] ** 2, 1e-300)) * w[i]
    return float(np.linalg.norm(pg))


def _optimality_gap_bound(x, posteriors, w, radius):
    """An upper bound on max Q - Q(w) over the row balls: by concavity it is
    at most <grad, w* - w>, so at most the projected gradient's norm times
    the diameter 2R sqrt(k - 1) of the product of balls."""
    grad = _ref_q_gradient(x, posteriors, w)
    return _ref_projected_gradient_norm(w, grad, radius) * 2 * radius * math.sqrt(len(w))


def _ref_m_step(x, posteriors, w_init, radius, grad_tol=1e-7, max_inner=500,
                armijo_c=1e-4, shrink=0.5):
    w = _ref_project_rows(np.array(w_init, dtype=float), radius)
    q = _ref_q_value(x, posteriors, w)
    step = 1.0
    for _ in range(max_inner):
        grad = _ref_q_gradient(x, posteriors, w)
        if _ref_projected_gradient_norm(w, grad, radius) <= grad_tol:
            break
        step = min(step * 2.0, 1e6)
        accepted = False
        while step > 1e-16:
            cand = _ref_project_rows(w + step * grad, radius)
            q_cand = _ref_q_value(x, posteriors, cand)
            if q_cand >= q + armijo_c * float(np.sum(grad * (cand - w))):
                w, q, accepted = cand, q_cand, True
                break
            step *= shrink
        if not accepted:
            break
    return w


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=12),
       st.one_of(st.integers(min_value=1, max_value=300), st.just(2000)),
       st.lists(st.sampled_from(["inside", "on", "outside"]), min_size=8, max_size=8),
       st.sampled_from([0.3, 1.0, 2.5]), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(min_value=0, max_value=2**31 - 1))
@example(k=8, d=5, n=2000, starts=["inside"] * 8, radius=2.5, frac_zero=0.0, seed=8)
@example(k=9, d=5, n=2000, starts=["on"] * 8, radius=2.5, frac_zero=0.3, seed=9)
@example(k=3, d=10, n=2000, starts=["on", "outside"] + ["inside"] * 6, radius=1.0,
         frac_zero=0.3, seed=3)
def test_m_step_bitwise_matches_reference(k, d, n, starts, radius, frac_zero, seed):
    """Starts inside, on and outside the row ball, posteriors with exact
    zeros (all but one in a row when frac_zero is 1), two to nine experts.

    At three experts and n = 2000, the benchmark's shapes, m_step takes the
    reference's iterates bit for bit. Elsewhere its logits, read from a
    column-major x (see gating_em._logits), or from four experts on its Q
    and gradient (see _Q_TOL), are rounded otherwise, which can flip a
    backtracking test and so the path; where m_step stops short of the
    maximum, the end points then differ. Both are near-maximisers of one
    concave Q, so there their Q values must agree within the larger of
    their optimality-gap bounds."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * rng.choice([0.5, 1.0, 3.0])
    posteriors = rng.dirichlet(np.ones(k), size=n)
    keep = rng.integers(0, k, size=n)
    zero = rng.random((n, k)) < frac_zero
    zero[np.arange(n), keep] = False
    posteriors[zero] = 0.0
    posteriors /= posteriors.sum(axis=1, keepdims=True)
    w0 = unit_rows(rng, k - 1, d) * radius
    scale = {"inside": rng.random(), "on": 1.0, "outside": 1.0 + 3.0 * rng.random()}
    w0 *= np.array([scale[starts[i]] for i in range(k - 1)])[:, None]

    got = m_step(x, posteriors, w0, radius)
    ref = _ref_m_step(x, posteriors, w0, radius)
    if k == 3 and n == 2000:
        assert np.array_equal(got, ref)
    else:
        gap = max(_optimality_gap_bound(x, posteriors, w, radius) for w in (got, ref))
        q_ref = _ref_q_value(x, posteriors, ref)
        assert abs(_ref_q_value(x, posteriors, got) - q_ref) <= gap + 1e-12 * max(1.0, abs(q_ref))
    for w in (w0, got):
        logits = x @ w.T
        exps = exp_pass(logits.T, zero_column=True)
        q = q_value(x, posteriors, w)
        assert q == q_value(x, posteriors, w, logits=logits)
        assert q == q_value(x, posteriors, w, logits=logits, exps=exps)
        want = _ref_q_value(x, posteriors, w)
        assert q == want if k <= 3 else q == pytest.approx(want, **_Q_TOL)
        grad = q_gradient(x, posteriors, w)
        assert np.array_equal(grad, q_gradient(x, posteriors, w, exps=exps))
        _assert_gradient_matches(grad, _ref_q_gradient(x, posteriors, w), bitwise=k <= 7)


@pytest.mark.parametrize("n,d", [(2000, 10), (4096, 40)])
def test_gating_em_bits_do_not_depend_on_the_order_of_x(n, d):
    """At the benchmark's k = 3 shapes, each E-step, Q, gradient, M-step and
    whole fit on a C-ordered x has the bits of the same call on a
    column-major copy, the layout the EM runners fit on."""
    rng = np.random.default_rng(n + d)
    k, sigma, act = 3, 0.5, Activation.sigmoid()
    x = rng.standard_normal((n, d))
    x_cols = np.asfortranarray(x)
    regressors = unit_rows(rng, k, d)
    w = rng.standard_normal((k - 1, d)) * 0.5
    y = act(x @ regressors[0]) + sigma * rng.standard_normal(n)
    posteriors = rng.dirichlet(np.ones(k), size=n)
    assert not x.flags.f_contiguous and not x_cols.flags.c_contiguous
    est, est_cols = (e_step(v, y, regressors, w, sigma, act) for v in (x, x_cols))
    assert np.array_equal(est.posteriors, est_cols.posteriors)
    assert est.loglik == est_cols.loglik
    assert q_value(x, posteriors, w) == q_value(x_cols, posteriors, w)
    assert np.array_equal(q_gradient(x, posteriors, w), q_gradient(x_cols, posteriors, w))
    assert np.array_equal(m_step(x, posteriors, w, 1.0), m_step(x_cols, posteriors, w, 1.0))
    fits = [run_em(v, y, regressors, sigma, act, seed=1, max_iters=5) for v in (x, x_cols)]
    assert np.array_equal(fits[0].w, fits[1].w)
    assert [vars(r) for r in fits[0].trace] == [vars(r) for r in fits[1].trace]


def test_m_step_leaves_the_caller_x_alone():
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal((300, 4)), np.asfortranarray(rng.standard_normal((300, 4)))):
        before = x.copy(order="A")
        posteriors = rng.dirichlet(np.ones(3), size=300)
        m_step(x, posteriors, rng.standard_normal((2, 4)), 1.0)
        assert np.array_equal(x, before)
        assert x.flags.c_contiguous == before.flags.c_contiguous


def test_project_rows_returns_rows_inside_unchanged():
    """Rows inside the balls come back as the same array; a row outside, or
    with a NaN norm, takes the scaling as before."""
    w = np.array([[0.6, 0.8], [0.1, -0.2]])
    assert gating_em.project_rows(w, 1.0) is w
    for bad in (np.array([[3.0, 4.0], [0.1, -0.2]]), np.array([[np.nan, 0.0], [0.1, -0.2]])):
        got = gating_em.project_rows(bad, 1.0)
        assert got is not bad
        np.testing.assert_array_equal(got, _ref_project_rows(bad, 1.0))


@pytest.mark.parametrize("c", [1, 2])
def test_q_value_of_all_zero_terms_is_positive_zero(c):
    """All posterior mass on the last expert and gating logits so negative
    that each row's log-sum-exp is 0: every row's term is a zero, +0.0 from
    einsum's linear term and -0.0 from the products', and Q is +0.0 either
    way, as numpy's sum starts from +0.0."""
    x = np.ones((5, 1))
    w = np.full((c, 1), -50.0)
    posteriors = np.zeros((5, c + 1))
    posteriors[:, -1] = 1.0
    for q in (q_value(x, posteriors, w), _ref_q_value(x, posteriors, w)):
        assert q == 0.0 and math.copysign(1.0, q) == 1.0


@pytest.mark.parametrize("c", [6, 7, 8])
def test_q_gradient_from_q_values_exp_pass_at_the_pairwise_width(c):
    """The gradient m_step takes from the exp pass of its point's Q equals
    the one computed afresh bit for bit, on either side of numpy's
    pairwise-sum width of 8 columns. Against the axis-1 reference it is
    bitwise up to c + 1 = 7 softmax columns and within _GRADIENT_TOL from 8
    on; Q, with three or more gating rows, within _Q_TOL."""
    rng = np.random.default_rng(c)
    x = rng.standard_normal((2000, 6)) * 2.0
    posteriors = rng.dirichlet(np.ones(c + 1), size=2000)
    w = rng.standard_normal((c, 6))
    logits = gating_em._logits(x, w)
    exps = exp_pass(logits.T, zero_column=True)
    assert (q_value(x, posteriors, w, logits=logits, exps=exps)
            == pytest.approx(_ref_q_value(x, posteriors, w), **_Q_TOL))
    shared = q_gradient(x, posteriors, w, exps=exps)
    assert np.array_equal(shared, q_gradient(x, posteriors, w))
    _assert_gradient_matches(shared, _ref_q_gradient(x, posteriors, w), bitwise=c + 1 <= 7)


# The E-step before its (k, n) layout, with the package log-sum-exp written as
# the axis-1 numpy formulas: the reference for e_step, bitwise up to seven
# experts (softmax columns).
def _ref_e_step(x, y, regressors, w, sigma, activation):
    k = regressors.shape[0]
    res = y[:, None] - activation(x @ regressors.T)
    logits = x @ w.T if k > 1 else np.zeros((x.shape[0], 0))
    if sigma == 0.0:
        z = np.argmin(np.abs(res), axis=1)
        post = np.zeros((x.shape[0], k))
        post[np.arange(x.shape[0]), z] = 1.0
        return post, float("nan")
    s2 = max(sigma**2, 1e-12)
    m = np.maximum(logits.max(axis=1, initial=-np.inf), 0.0)
    lse_prior = m + np.log(np.exp(-m) + np.exp(logits - m[:, None]).sum(axis=1))
    full_logits = np.hstack([logits, np.zeros((x.shape[0], 1))])
    log_joint = (full_logits - lse_prior[:, None] - 0.5 * res**2 / s2
                 - 0.5 * math.log(2 * math.pi * s2))
    m = log_joint.max(axis=1)
    lse = m + np.log(np.exp(log_joint - m[:, None]).sum(axis=1))
    return np.exp(log_joint - lse[:, None]), float(lse.mean())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=12),
       st.one_of(st.integers(min_value=1, max_value=300), st.just(2000)),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.sampled_from(["linear", "relu", "sigmoid"]),
       st.sampled_from([0.3, 1.0, 5.0]), st.integers(min_value=0, max_value=2**31 - 1))
def test_e_step_bitwise_matches_reference(k, d, n, sigma, activation, scale, seed):
    """Posteriors as a C-contiguous (n, k) array and the log-likelihood, for
    one to nine experts and sigma = 0 included (a NaN log-likelihood, one
    expert too). Bit for bit up to seven experts. From eight on, the
    log-sum-exp sums in another order than numpy's pairwise one and moves by
    a few ulp of the largest log-joint entry, so the posteriors agree within
    1e-10 relative (plus 1e-300 for subnormals) and the log-likelihood
    within 1e-12."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    regressors = unit_rows(rng, k, d)
    w = rng.standard_normal((k - 1, d)) * scale
    y = rng.standard_normal(n) * scale
    act = Activation.by_name(activation)
    got = e_step(x, y, regressors, w, sigma, act)
    post, loglik = _ref_e_step(x, y, regressors, w, sigma, act)
    assert got.posteriors.flags.c_contiguous
    if k <= 7:
        assert np.array_equal(got.posteriors, post)
        assert got.loglik == loglik or (math.isnan(got.loglik) and math.isnan(loglik))
    else:
        np.testing.assert_allclose(got.posteriors, post, rtol=1e-10, atol=1e-300)
        assert got.loglik == pytest.approx(loglik, rel=1e-12, abs=1e-12, nan_ok=True)
    assert got.hard_assignment == (sigma == 0.0)


@pytest.mark.parametrize("k", [4, 6, 10])
def test_q_value_bitwise_matches_reference_with_three_or_more_gating_rows(k):
    """From three gating rows on, q_value adds each point's linear term left
    to right and einsum, in the reference, in another order: Q agrees
    within _Q_TOL. A changed linear term changes Q's last bit only now and
    then, so many draws are compared."""
    rng = np.random.default_rng(k)
    for _ in range(30):
        x = rng.standard_normal((300, 7))
        posteriors = rng.dirichlet(np.ones(k), size=300)
        w = rng.standard_normal((k - 1, 7))
        assert q_value(x, posteriors, w) == pytest.approx(_ref_q_value(x, posteriors, w),
                                                          **_Q_TOL)


def _criterion5_instance(sigma=0.05, n=100000, seed=5):
    model = make_model(42, k=2, d=10, sigma=sigma)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, n, seed=seed)
    return model, data


def test_fixed_point_one_step_from_truth():
    model, data = _criterion5_instance()
    st = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=1.0, w0=model.w, max_iters=1)
    assert st.trace[0].step_norm < 0.05


def test_em_reaches_truth_and_loglik_monotone():
    model, data = _criterion5_instance()
    st = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=1.0, seed=3)
    assert st.converged
    assert row_metric(st.w, model.w) < 0.05
    lls = st.loglik_sequence()
    assert all(lls[i + 1] >= lls[i] - 1e-9 for i in range(len(lls) - 1))


def test_contraction_ratios_below_one_before_plateau():
    # sigma = 0.1: distances to the truth contract geometrically until the
    # iterate reaches the sampling-error floor
    model = make_model(42, k=2, d=10, sigma=0.1)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 100000, seed=9)
    w0 = random_gating_init(2, 10, 1.0, make_rng(1))
    st = run_em(data.x, data.y, model.a, 0.1, model.activation, radius=1.0,
                w0=w0, max_iters=12, eps=0.0)
    dists = [row_metric(w, model.w) for w in [w0] + [w for _, w in st.iterates]]
    floor = dists[-1]
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)
              if dists[i] > 2 * floor]
    assert ratios, "no pre-plateau iterations recorded"
    assert all(r < 1.0 for r in ratios)
    assert min(ratios) < 0.5


def test_estimated_regressors_gating_fit_within_five_iterations():
    # the table-2 instance: spectral regressors then EM; fit >= 0.9 by iter 5
    from moelearn import fit_pipeline
    model = make_model(100, k=2, d=10, sigma=0.1)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 2000, seed=200)
    res = fit_pipeline(data, dist, 2, 0.1, model.activation, seed=300,
                       algo="spectral+em")
    fits = []
    for _, w_t in res.em_state.iterates[:5]:
        fits.append(gating_fit(w_t[0], model.w[0]))
    assert max(fits) >= 0.9


def test_gradient_em_zero_step_is_constant():
    model, data = _criterion5_instance(n=5000)
    w0 = np.full((1, 10), 0.1)
    st = run_gradient_em(data.x, data.y, model.a, model.sigma, model.activation,
                         step_alpha=0.0, w0=w0, max_iters=3, eps=0.0)
    assert np.array_equal(st.w, w0)


def test_gradient_em_matches_em_limit():
    model, data = _criterion5_instance()
    eps = 1e-4
    em = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=1.0, seed=1, eps=eps)
    gem = run_gradient_em(data.x, data.y, model.a, model.sigma, model.activation,
                          radius=1.0, seed=1, eps=eps, max_iters=400)
    assert gem.converged
    assert row_metric(em.w, gem.w) <= 2 * eps
    assert len(gem.trace) >= len(em.trace)   # one ascent step per outer iteration


@pytest.mark.parametrize("factor", [math.nan, math.inf, -0.1, 1.5])
def test_gradient_em_step_bound(factor):
    """A step outside [0, 2 / (mu + lambda)], NaN included, is refused."""
    model, data = _criterion5_instance(n=2000)
    with pytest.raises(ConfigError, match=r"step size must lie in \[0, 5\.0736\]"):
        run_gradient_em(data.x, data.y, model.a, 0.05, model.activation,
                        step_alpha=default_gradient_step() * factor)


def test_curvature_constants():
    lam, mu = em_curvature_constants()
    assert lam == pytest.approx(0.1442, abs=2e-3)
    assert mu == pytest.approx(0.25, abs=1e-3)
    assert default_gradient_step() == pytest.approx(2.0 / (0.25 + 0.1442), abs=2e-2)


def test_em_robust_to_regressor_error_linear_envelope():
    # inject ||delta a|| = sigma^2 eps; the EM limit moves at most kappa eps
    # with kappa = (k-1) sqrt(6 (2 + sigma^2)) / 2, up to the sampling floor
    model, data = _criterion5_instance(sigma=0.1, n=50000)
    kappa = np.sqrt(6 * (2 + 0.1**2)) / 2
    rng = np.random.default_rng(13)
    base = None
    for eps in (0.0, 0.05, 0.1):
        delta = rng.standard_normal(model.a.shape)
        delta /= np.linalg.norm(delta, axis=1, keepdims=True)
        a_pert = model.a + 0.1**2 * eps * delta
        a_pert /= np.linalg.norm(a_pert, axis=1, keepdims=True)
        st = run_em(data.x, data.y, a_pert, 0.1, model.activation, radius=1.0,
                    seed=2)
        err = row_metric(st.w, model.w)
        if eps == 0.0:
            base = err
        else:
            assert err <= base + 1.5 * kappa * eps


def test_trace_and_radius_contract():
    model, data = _criterion5_instance(n=3000)
    st = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=0.5, seed=7, max_iters=20)
    assert np.all(np.linalg.norm(st.w, axis=1) <= 0.5 + 1e-9)
    assert [r.iteration for r in st.trace] == list(range(1, len(st.trace) + 1))
    assert np.all(np.isfinite([r.q_value for r in st.trace]))


@pytest.mark.parametrize("runner", ["em", "gradient-em", "joint-em"])
def test_step_norm_is_row_metric_of_stacked_iterates(runner):
    """All three runners share one loop: each step is the largest row move of
    the stacked (a, w) iterate, equal to the larger of the two parts' moves,
    and the run has converged exactly when its last step is below eps."""
    model = make_model(11, k=3, d=5, sigma=0.3)
    data = sample_dataset(model, InputDistribution.standard_gaussian(5), 1500, seed=12)
    rng = np.random.default_rng(13)
    w0 = 0.4 * unit_rows(rng, 2, 5)           # inside the ball: projection keeps it
    a0 = unit_rows(rng, 3, 5) if runner == "joint-em" else model.a
    seen = set()
    for eps, max_iters in ((1e-2, 200), (0.0, 6)):
        if runner == "joint-em":
            st = run_joint_em(data.x, data.y, 3, 0.3, model.activation, radius=2.0,
                              eps=eps, max_iters=max_iters, a0=a0, w0=w0)
            start = (a0 / np.linalg.norm(a0, axis=1, keepdims=True), w0)
        else:
            run = run_em if runner == "em" else run_gradient_em
            st = run(data.x, data.y, model.a, 0.3, model.activation, radius=2.0,
                     eps=eps, max_iters=max_iters, w0=w0)
            start = (model.a, w0)
        assert len(st.trace) == len(st.iterates)
        for row, before, after in zip(st.trace, [start] + st.iterates, st.iterates):
            assert row.step_norm == row_metric(np.vstack(after), np.vstack(before))
            assert row.step_norm == max(row_metric(after[0], before[0]),
                                        row_metric(after[1], before[1]))
        steps = [row.step_norm for row in st.trace]
        assert st.converged == (steps[-1] < eps)
        assert all(s >= eps for s in steps[:-1])
        assert st.converged or len(steps) == max_iters
        seen.add(st.converged)
    assert seen == {True, False}


@pytest.mark.parametrize("runner", ["em", "gradient-em", "joint-em"])
def test_overflowing_label_raises_instead_of_converging(runner):
    """A finite label of 1e200 overflows that row's squared residual, so its
    posteriors are NaN and the M-step cannot move; the zero step used to read
    as convergence after one iteration with Q and the log-likelihood NaN."""
    model = make_model(3, k=2, d=6, sigma=0.1)
    data = sample_dataset(model, InputDistribution.standard_gaussian(6), 900, seed=4)
    y = data.y.copy()
    y[7] = 1e200

    def fit(labels, sigma):
        if runner == "joint-em":
            return run_joint_em(data.x, labels, 2, sigma, model.activation, seed=1)
        run = run_em if runner == "em" else run_gradient_em
        return run(data.x, labels, model.a, sigma, model.activation)

    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="EM iteration 1: the E-step "
                                                 "log-likelihood is nan"):
            fit(y, 0.1)
        # the hard-assignment E-step reports a NaN log-likelihood by design
        hard = fit(data.y, 0.0)
    assert hard.hard_assignment and np.isnan(hard.final_loglik)
    assert all(np.isfinite(row.q_value) for row in hard.trace)
