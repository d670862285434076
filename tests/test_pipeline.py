import numpy as np
import pytest

from moelearn import (ExperimentConfig, InputDistribution, evaluate,
                      fit_pipeline, predict_moe, sample_dataset)
from moelearn.errors import ConfigError

from conftest import make_model


def test_spectral_em_pipeline_scores_well(gaussian10):
    model = make_model(60, k=2, d=10, sigma=0.1)
    data = sample_dataset(model, gaussian10, 2000, seed=61)
    res = fit_pipeline(data, gaussian10, 2, 0.1, model.activation, seed=1)
    rep = evaluate(res, model, {"case": "unit"})
    assert rep.regressor_fit > 0.9
    assert rep.gating_fit > 0.9
    assert rep.param_error < 1.0
    assert rep.cqt is not None and rep.decomposition is not None
    assert len(rep.decomposition["residuals"]) == 2
    assert max(rep.decomposition["residuals"]) < 1e-6
    assert rep.traces["iterations"]


def test_gradient_em_variant_close_to_em(gaussian10):
    model = make_model(62, k=2, d=10, sigma=0.1)
    data = sample_dataset(model, gaussian10, 4000, seed=63)
    r1 = fit_pipeline(data, gaussian10, 2, 0.1, model.activation, seed=2,
                      algo="spectral+em")
    r2 = fit_pipeline(data, gaussian10, 2, 0.1, model.activation, seed=2,
                      algo="spectral+gradient-em")
    assert np.allclose(r1.a_est, r2.a_est)   # same spectral stage
    f1 = evaluate(r1, model, {}).gating_fit
    f2 = evaluate(r2, model, {}).gating_fit
    assert abs(f1 - f2) < 0.02


def test_mom_variant_restrictions_and_recovery(gaussian10):
    model = make_model(64, k=2, d=10, sigma=0.1)
    data = sample_dataset(model, gaussian10, 50000, seed=65)
    res = fit_pipeline(data, gaussian10, 2, 0.1, model.activation, seed=3,
                       algo="spectral+mom")
    rep = evaluate(res, model, {})
    assert rep.gating_fit > 0.9
    model3 = make_model(66, k=3, d=10, sigma=0.1)
    data3 = sample_dataset(model3, gaussian10, 3000, seed=67)
    with pytest.raises(ConfigError):
        fit_pipeline(data3, gaussian10, 3, 0.1, model3.activation, seed=3,
                     algo="spectral+mom")
    sig = make_model(68, k=2, d=10, sigma=0.1, activation="sigmoid")
    dsig = sample_dataset(sig, gaussian10, 3000, seed=69)
    with pytest.raises(ConfigError):
        fit_pipeline(dsig, gaussian10, 2, 0.1, sig.activation, seed=3,
                     algo="spectral+mom")


def test_force_gaussian_score_ablation():
    # GMM inputs scored with the (wrong) Gaussian score still run end to end
    model = make_model(70, k=2, d=8, sigma=0.1, orthogonal=False)
    rng = np.random.default_rng(3)
    mu = rng.standard_normal(8)
    mu /= np.linalg.norm(mu)
    dist = InputDistribution.gaussian_mixture([0.5, 0.5], np.vstack([mu, -mu]))
    data = sample_dataset(model, dist, 4000, seed=71)
    right = fit_pipeline(data, dist, 2, 0.1, model.activation, seed=4)
    wrong = fit_pipeline(data, InputDistribution.standard_gaussian(8), 2, 0.1,
                         model.activation, seed=4)
    f_right = evaluate(right, model, {}).regressor_fit
    f_wrong = evaluate(wrong, model, {}).regressor_fit
    assert f_right > 0.85
    assert f_right >= f_wrong - 0.05   # the matched score is not worse


def test_unknown_algorithm_rejected(gaussian10):
    with pytest.raises(ConfigError, match="alchemy"):
        ExperimentConfig(algo="alchemy")
    model = make_model(74, k=2, d=10, sigma=0.1)
    data = sample_dataset(model, gaussian10, 100, seed=1)
    with pytest.raises(ConfigError, match="alchemy"):
        fit_pipeline(data, gaussian10, 2, 0.1, model.activation, algo="alchemy")


def test_predict_moe_matches_model(gaussian10):
    model = make_model(72, k=3, d=10, sigma=0.2)
    x = np.random.default_rng(0).standard_normal((20, 10))
    got = predict_moe(model.a, model.w, model.activation, x)
    want = (model.gating_probs(x) * model.activation(x @ model.a.T)).sum(axis=1)
    assert np.allclose(got, want, atol=1e-12)


def test_pipeline_dimension_mismatch(gaussian10):
    model = make_model(73, k=2, d=8, sigma=0.1)
    data = sample_dataset(model, InputDistribution.standard_gaussian(8), 500, seed=1)
    with pytest.raises(ConfigError, match=r"^the dataset's d is 8, the input distribution's 10$"):
        fit_pipeline(data, gaussian10, 2, 0.1, model.activation)
