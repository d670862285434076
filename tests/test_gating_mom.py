import math

import numpy as np
import pytest
from scipy.special import ndtr

from moelearn import (Activation, InputDistribution, MoeModel, compute_ratio,
                      mom_gating, naive_ratio_mean, ratio_cdf_oracle,
                      sample_dataset)
from moelearn.activations import _sigmoid_d1
from moelearn.errors import NumericalError
from moelearn.gating_mom import normal_cdf

from conftest import make_model, unit_rows


def _k2_instance(seed, sigma=0.1, d=10, n=100000):
    model = make_model(seed, k=2, d=d, sigma=sigma)
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=seed + 1000)
    return model, data


def test_mom_recovers_direction():
    model, data = _k2_instance(7000)
    res = mom_gating(data.x, data.y, model.a[0], model.a[1])
    assert abs(res.w_hat @ model.w[0]) >= 0.95
    assert res.w_hat @ model.w[0] > 0         # sign fixed, not only |cos|
    assert not res.below_noise_floor


def _one_sided_sigmoid_d1(t):
    """f'(t) by the one-sided formula on |t|."""
    s = 1.0 / (1.0 + np.exp(-np.abs(t)))
    return s * (1.0 - s)


def test_sigmoid_d1_on_abs_matches_one_sided_formula():
    """On |t| the two-sided sigmoid takes its 1 / (1 + exp(-|t|)) branch, so
    its f'(|t|) keeps the one-sided formula's bits, at the edges (signed
    zeros, subnormals, +-1e308, +-inf, NaN) too."""
    rng = np.random.default_rng(11)
    t = np.concatenate([scale * rng.standard_normal(20000)
                        for scale in (0.5, 3.0, 40.0, 800.0)]
                       + [[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf,
                           np.nan]])
    assert np.array_equal(_sigmoid_d1(np.abs(t)), _one_sided_sigmoid_d1(t), equal_nan=True)


def test_normal_cdf_matches_ndtr():
    """Phi from math.erfc agrees with scipy's ndtr, as 1 - 2 Phi on t in
    [0, 40] to 1e-15, and at the ends exactly."""
    rng = np.random.default_rng(12)
    t = np.concatenate([np.linspace(0.0, 40.0, 4001), rng.uniform(0.0, 40.0, 100000),
                        np.abs(rng.standard_normal(100000))])
    cdf = np.array([normal_cdf(v) for v in t.tolist()])
    assert np.max(np.abs((1.0 - 2.0 * cdf) - (1.0 - 2.0 * ndtr(t)))) <= 1e-15
    assert [normal_cdf(v) for v in (0.0, 40.0, math.inf, -math.inf)] == [0.5, 1.0, 1.0, 0.0]
    assert math.isnan(normal_cdf(math.nan))


def test_mom_zero_gating_below_noise_floor():
    d, n = 10, 100000
    rng = np.random.default_rng(3)
    model = MoeModel(a=unit_rows(rng, 2, d), w=np.zeros((1, d)), sigma=0.1,
                     activation=Activation.linear())
    data = sample_dataset(model, InputDistribution.standard_gaussian(d), n, seed=4)
    with pytest.warns(RuntimeWarning):
        res = mom_gating(data.x, data.y, model.a[0], model.a[1])
    assert res.below_noise_floor
    assert res.moment_norm <= 3.0 / np.sqrt(n)


def test_mom_fit_degrades_with_noise():
    fits = {s: [] for s in (0.1, 0.5, 1.0)}
    for sigma in fits:
        for seed in range(20):
            model, data = _k2_instance(500 + seed, sigma=sigma, n=20000)
            res = mom_gating(data.x, data.y, model.a[0], model.a[1])
            fits[sigma].append(abs(res.w_hat @ model.w[0]))
    means = {s: float(np.mean(v)) for s, v in fits.items()}
    assert means[0.1] > means[0.5] > means[1.0]


def test_mom_fit_improves_with_samples():
    medians = []
    for n in (1000, 10000, 100000):
        vals = []
        for seed in range(7):
            model, data = _k2_instance(900 + seed, n=n)
            res = mom_gating(data.x, data.y, model.a[0], model.a[1])
            vals.append(abs(res.w_hat @ model.w[0]))
        medians.append(float(np.median(vals)))
    assert medians[0] <= medians[1] <= medians[2]


def test_degenerate_model_rejected():
    rng = np.random.default_rng(1)
    a = unit_rows(rng, 1, 5)[0]
    x = rng.standard_normal((100, 5))
    with pytest.raises(NumericalError, match="degenerate"):
        compute_ratio(x, x @ a, a, a)


def test_ratio_degenerate_denominators_excluded():
    a1 = np.array([1.0, 0.0])
    a2 = np.array([0.0, 1.0])
    x = np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 1.0 + 1e-15]])
    y = np.array([1.0, 1.0, 1.0])
    stat = compute_ratio(x, y, a1, a2)
    assert stat.degenerate_count == 2
    assert len(stat.values) == 1


def test_ratio_cdf_oracle_limits_and_midpoint():
    model = make_model(11, k=2, d=6, sigma=0.3)
    x = np.random.default_rng(2).standard_normal(6)
    assert ratio_cdf_oracle(x, 50.0, model) == pytest.approx(1.0, abs=1e-8)
    assert ratio_cdf_oracle(x, -50.0, model) == pytest.approx(0.0, abs=1e-8)
    # point with w.x = 0: Phi(-t)/2 + Phi(t)/2 = 1/2 at z = 0.5
    w = model.w[0]
    x_perp = x - (x @ w) * w / np.linalg.norm(w) ** 2
    assert ratio_cdf_oracle(x_perp, 0.5, model) == pytest.approx(0.5, abs=1e-10)


def test_ratio_cdf_oracle_matches_conditional_monte_carlo():
    # Dvoretzky-Kiefer-Wolfowitz band at the 1% level for the conditional law
    model = make_model(21, k=2, d=5, sigma=0.2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(5)
    n = 100000
    f = 1.0 / (1.0 + np.exp(-model.w[0] @ x))
    z = rng.random(n) > f                      # z=0 -> expert 1
    means = np.where(z, model.a[1] @ x, model.a[0] @ x)
    y = means + 0.2 * rng.standard_normal(n)
    ratios = (y - model.a[1] @ x) / ((model.a[0] - model.a[1]) @ x)
    band = np.sqrt(np.log(2.0 / 0.01) / (2 * n))
    for q in (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
        emp = float(np.mean(ratios <= q))
        assert abs(emp - ratio_cdf_oracle(x, q, model)) <= band


def test_ratio_cdf_oracle_restrictions():
    model3 = make_model(5, k=3, d=6, sigma=0.2)
    with pytest.raises(NumericalError):
        ratio_cdf_oracle(np.zeros(6), 0.5, model3)
    model_sig = make_model(5, k=2, d=6, sigma=0.2, activation="sigmoid")
    with pytest.raises(NumericalError):
        ratio_cdf_oracle(np.zeros(6), 0.5, model_sig)


def test_naive_ratio_noiseless_is_latent_indicator():
    model, data = _k2_instance(33, sigma=0.0, n=20000)
    stat = compute_ratio(data.x, data.y, model.a[0], model.a[1])
    assert np.allclose(np.unique(np.round(stat.values, 9)), [0.0, 1.0])
    res = naive_ratio_mean(data.x, data.y, model.a[0], model.a[1])
    assert np.all(np.isfinite(res.mean))
    assert res.tail_ratio < 2.0


def test_naive_ratio_cauchy_tail_signature():
    model, data = _k2_instance(34, sigma=0.1, n=100000)
    res = naive_ratio_mean(data.x, data.y, model.a[0], model.a[1])
    assert res.tail_ratio > 5.0
    # Gaussian reference for contrast
    g = np.abs(np.random.default_rng(0).standard_normal(100000))
    q99, q999 = np.quantile(g, [0.99, 0.999])
    assert q999 / q99 < 1.5


def test_naive_ratio_error_does_not_shrink_like_sqrt_n():
    # one fixed model, 50 data seeds: robust spread of the estimator's first
    # coordinate. Quadrupling n halves it for a sqrt(n) estimator; the Cauchy
    # mixture keeps it essentially flat.
    model = make_model(77, k=2, d=6, sigma=0.1)
    dist = InputDistribution.standard_gaussian(6)

    def draws(n):
        naive, indicator = [], []
        for seed in range(50):
            data = sample_dataset(model, dist, n, seed=3000 + seed)
            res = naive_ratio_mean(data.x, data.y, model.a[0], model.a[1])
            naive.append(res.mean[0])
            stat = compute_ratio(data.x, data.y, model.a[0], model.a[1])
            m = (stat.values <= 0.5) @ data.x[stat.keep] / len(stat.values)
            indicator.append(m[0])
        def mad(v):
            v = np.asarray(v)
            return float(np.median(np.abs(v - np.median(v))))
        return mad(naive), mad(indicator)

    naive1, ind1 = draws(5000)
    naive4, ind4 = draws(20000)
    assert naive4 > 0.6 * naive1          # no sqrt(n) shrink for the naive mean
    assert ind4 < 0.75 * ind1             # the indicator moment does shrink
