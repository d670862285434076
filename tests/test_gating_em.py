import numpy as np
import pytest

from moelearn import (Activation, InputDistribution, gating_fit, run_em,
                      run_gradient_em, run_joint_em, sample_dataset)
from moelearn.errors import ConfigError
from moelearn.gating_em import (default_gradient_step, e_step,
                                em_curvature_constants, m_step, q_value,
                                row_metric)

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


def _criterion5_instance(sigma=0.05, n=100000, seed=5):
    model = make_model(42, k=2, d=10, sigma=sigma)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, n, seed=seed)
    return model, data


def test_fixed_point_one_step_from_truth():
    model, data = _criterion5_instance()
    st = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=1.0, w0=model.w, truth=model.w, max_iters=1)
    assert st.trace[0].step_norm < 0.05


def test_em_reaches_truth_and_loglik_monotone():
    model, data = _criterion5_instance()
    st = run_em(data.x, data.y, model.a, model.sigma, model.activation,
                radius=1.0, seed=3, truth=model.w)
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
    st = run_em(data.x, data.y, model.a, 0.1, model.activation, radius=1.0,
                seed=1, truth=model.w, max_iters=12, eps=0.0)
    dists = [st.initial_distance] + [r.dist_to_truth for r in st.trace]
    floor = dists[-1]
    ratios = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)
              if dists[i] > 2 * floor]
    assert ratios, "no pre-plateau iterations recorded"
    assert all(r < 1.0 for r in ratios)
    assert min(ratios) < 0.5


def test_estimated_regressors_gating_fit_within_five_iterations():
    # the table-2 instance: spectral regressors then EM; fit >= 0.9 by iter 5
    from moelearn import PipelineOptions, fit_pipeline
    model = make_model(100, k=2, d=10, sigma=0.1)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 2000, seed=200)
    res = fit_pipeline(data, dist, 2, 0.1, model.activation, seed=300,
                       opts=PipelineOptions(algo="spectral+em"))
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


def test_gradient_em_step_bound():
    model, data = _criterion5_instance(n=2000)
    with pytest.raises(ConfigError):
        run_gradient_em(data.x, data.y, model.a, 0.05, model.activation,
                        step_alpha=default_gradient_step() * 1.5)


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
                    seed=2, truth=model.w)
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
