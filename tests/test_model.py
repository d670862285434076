import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from moelearn import Activation, Dataset, InputDistribution, MoeModel, sample_dataset
from moelearn.errors import ConfigError, DataError
from moelearn.model import logsumexp_rows, softmax_rows
from moelearn.pipeline import predict_moe

from conftest import make_model, unit_rows


def test_single_noiseless_linear_expert_reproduces_projection():
    d = 5
    a = np.zeros((1, d))
    a[0, 0] = 1.0
    model = MoeModel(a=a, w=np.zeros((0, d)), sigma=0.0, activation=Activation.linear())
    data = sample_dataset(model, InputDistribution.standard_gaussian(d), 500, seed=3)
    assert np.max(np.abs(data.y - data.x[:, 0])) == 0.0


def test_zero_gating_gives_uniform_expert_frequencies():
    model = make_model(1, k=2, d=6, sigma=0.1)
    model = MoeModel(a=model.a, w=np.zeros((1, 6)), sigma=0.1, activation=model.activation)
    n = 40000
    data = sample_dataset(model, InputDistribution.standard_gaussian(6), n, seed=11)
    freq = np.mean(data.z == 0)
    assert abs(freq - 0.5) <= 3.0 / np.sqrt(n)


def _predict(model, x):
    return predict_moe(model.a, model.w, model.activation, x)


def test_predict_single_expert_and_cancellation():
    d = 4
    rng = np.random.default_rng(0)
    a = unit_rows(rng, 1, d)
    model = MoeModel(a=a, w=np.zeros((0, d)), sigma=0.0, activation=Activation.sigmoid())
    x = rng.standard_normal((1, d))
    assert _predict(model, x)[0] == pytest.approx(float(model.activation(a[0] @ x[0])))

    a2 = np.vstack([a[0], -a[0]])
    model2 = MoeModel(a=a2, w=np.zeros((1, d)), sigma=0.0, activation=Activation.linear())
    assert np.allclose(_predict(model2, rng.standard_normal((5, d))), 0.0, atol=1e-12)


def test_predict_two_expert_hand_example():
    # a1 = e1, a2 = e2, w = 0, linear, x = (1, 2): 0.5*1 + 0.5*2
    model = MoeModel(a=np.eye(2), w=np.zeros((1, 2)), sigma=0.0,
                     activation=Activation.linear())
    assert _predict(model, np.array([[1.0, 2.0]]))[0] == pytest.approx(1.5)


@pytest.mark.parametrize("activation", ["linear", "sigmoid", "relu"])
def test_second_moment_bound(activation):
    model = make_model(5, k=3, d=8, sigma=0.3, activation=activation)
    n = 100000
    data = sample_dataset(model, InputDistribution.standard_gaussian(8), n, seed=7)
    assert np.mean(data.y**2) <= 1.0 + model.sigma**2 + 5.0 / np.sqrt(n)


def test_latent_frequencies_match_softmax_in_narrow_bin():
    model = make_model(9, k=2, d=6, sigma=0.2)
    n = 20000
    data = sample_dataset(model, InputDistribution.standard_gaussian(6), n, seed=21)
    proj = data.x @ model.w[0]
    sel = np.abs(proj - 0.8) < 0.1
    assert sel.sum() > 500
    probs = model.gating_probs(data.x[sel])
    expected = probs.sum(axis=0)
    observed = np.bincount(data.z[sel], minlength=2).astype(float)
    stat = np.sum((observed - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, df=1)


def test_seed_determinism_bitwise():
    model = make_model(4, k=3, d=5, sigma=0.25)
    dist = InputDistribution.standard_gaussian(5)
    d1 = sample_dataset(model, dist, 1000, seed=99)
    d2 = sample_dataset(model, dist, 1000, seed=99)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.z, d2.z)
    d3 = sample_dataset(model, dist, 1000, seed=100)
    assert not np.array_equal(d1.y, d3.y)


def test_gmm_sampling_and_validation():
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    dist = InputDistribution.gaussian_mixture([0.8, 0.2], means)
    rng = np.random.default_rng(0)
    x = dist.sample(50000, rng)
    # mixture mean = 0.8 mu1 + 0.2 mu2 = (0.6, 0)
    assert np.allclose(x.mean(axis=0), [0.6, 0.0], atol=0.03)
    with pytest.raises(ConfigError):
        InputDistribution.gaussian_mixture([0.5, 0.4], means)
    with pytest.raises(ConfigError):
        InputDistribution.gaussian_mixture([0.5, 0.5], np.ones((3, 2)))


def test_mixture_mean_count_mismatch_names_both_counts():
    """Three means of the right length for two weights: the message gives
    the counts, not the dimension."""
    with pytest.raises(ConfigError,
                       match=r"^a mixture needs one mean per weight, got 3 means and 2 weights$"):
        InputDistribution.gaussian_mixture([0.5, 0.5], np.ones((3, 6)))


def test_mixture_mean_of_wrong_length_names_the_dimension():
    with pytest.raises(ConfigError,
                       match=r"^each mixture mean must have the input dimension$"):
        InputDistribution("gmm", 6, np.array([0.5, 0.5]), np.ones((2, 5)))


def test_dimension_mismatch_is_config_error():
    model = make_model(4, k=2, d=5, sigma=0.1)
    with pytest.raises(ConfigError):
        sample_dataset(model, InputDistribution.standard_gaussian(6), 10, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_nonfinite_features_with_row_count(bad):
    x = np.ones((6, 3))
    x[1, 2] = bad
    x[4, 0] = bad
    x[4, 1] = bad
    with pytest.raises(DataError, match="2 of 6 rows have a non-finite feature"):
        Dataset(x, np.zeros(6))
    # a non-finite label is rejected the same way
    y = np.zeros(6)
    y[0] = bad
    y[5] = bad
    with pytest.raises(DataError, match="2 of 6 rows have a non-finite label"):
        Dataset(np.ones((6, 3)), y)


def test_model_validation():
    with pytest.raises(ConfigError):
        MoeModel(a=np.array([[1.0, 1.0]]), w=np.zeros((0, 2)), sigma=0.1,
                 activation=Activation.linear())
    with pytest.raises(ConfigError):
        MoeModel(a=np.eye(2), w=np.array([[3.0, 0.0]]), sigma=0.1,
                 activation=Activation.linear(), radius=1.0)
    with pytest.raises(ConfigError):
        MoeModel(a=np.eye(2), w=np.zeros((1, 2)), sigma=-0.1,
                 activation=Activation.linear())


def test_model_json_roundtrip(tmp_path):
    model = make_model(8, k=3, d=4, sigma=0.15, activation="relu", radius=1.5)
    path = tmp_path / "model.json"
    model.to_json(path)
    back = MoeModel.from_json(path)
    assert np.array_equal(back.a, model.a)
    assert np.array_equal(back.w, model.w)
    assert back.sigma == model.sigma
    assert back.activation.name == "relu"
    assert back.radius == 1.5


def test_dataset_csv_roundtrip(tmp_path):
    model = make_model(3, k=2, d=3, sigma=0.2)
    data = sample_dataset(model, InputDistribution.standard_gaussian(3), 200, seed=5)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    with path.open() as fh:
        assert fh.readline().strip() == "x0,x1,x2,y,z"
    back = Dataset.from_csv(path)
    assert np.allclose(back.x, data.x, rtol=0, atol=0)
    assert np.allclose(back.y, data.y, rtol=0, atol=0)
    assert np.array_equal(back.z, data.z)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DataError):
        Dataset.from_csv("/nonexistent/file.csv")


# The axis-1 numpy formulas the shared helper replaced, kept as its reference.
def _softmax_axis1(logits):
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def _lse_axis1(logits):
    m = logits.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))


def _lse_with_zero_axis1(logits):
    if logits.shape[1] == 0:
        return np.zeros(logits.shape[0])
    m = np.maximum(logits.max(axis=1), 0.0)
    return m + np.log(np.exp(-m) + np.exp(logits - m[:, None]).sum(axis=1))


@pytest.mark.parametrize("width", range(13))
@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=8), st.sampled_from([2000, 2500])),
       st.sampled_from([1.0, 30.0, 800.0, 1e300]), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       st.booleans(), st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["C", "F", "first columns", "last columns"]))
def test_row_softmax_and_lse_bitwise_match_axis1_numpy(width, n, scale, frac_special,
                                                       shifted, seed, layout):
    """Widths 0-12 straddle numpy's switch to a pairwise sum at 8 columns;
    logits are up to 1e300 in size, shifted far negative, or +-inf. The
    helpers get them C- or F-ordered or as a column slice of a wider array
    (as ``posteriors[:, :-1]``) and return the softmax C-contiguous.

    Up to 7 summed columns, the zero column included (every shape the
    benchmark runs), they give the bits the axis-1 formulas give on the
    C-ordered array, as both sum left to right. From 8 on numpy sums
    pairwise and the helpers still left to right. The two sums of at most 13
    terms in [0, 1], one of them 1, differ by at most 16 ulp of 1, about
    4e-15, so there the results agree within 1e-14 relative, plus 1e-300
    (subnormal quotients) for the softmax and 1e-14 absolute (log of a sum
    near 1) for the log-sum-exp. NaN and inf stay in the same places."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, width)) * scale - (1e3 if shifted else 0.0)
    special = rng.random((n, width)) < frac_special
    logits[special] = rng.choice([-np.inf, np.inf, -1e308, 1e308, -745.0, 710.0],
                                 size=int(special.sum()), p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    full = np.hstack([logits, np.zeros((n, 1))])
    extra = rng.standard_normal((n, 1))
    given = {"C": logits, "F": np.asfortranarray(logits),
             "first columns": np.hstack([logits, extra])[:, :-1],
             "last columns": np.hstack([extra, logits])[:, 1:]}[layout]
    assert np.array_equal(given, logits, equal_nan=True)
    with np.errstate(all="ignore"):
        # (result, axis-1 formula, columns summed, absolute tolerance)
        cases = [(softmax_rows(given, zero_column=True), _softmax_axis1(full), width + 1, 1e-300),
                 (logsumexp_rows(given, zero_column=True), _lse_with_zero_axis1(logits),
                  width + 1, 1e-14)]
        if width:
            cases += [(softmax_rows(given), _softmax_axis1(logits), width, 1e-300),
                      (logsumexp_rows(given), _lse_axis1(logits), width, 1e-14)]
    for got, want, columns, atol in cases:
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        if columns <= 7:
            assert np.array_equal(got, want, equal_nan=True)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=atol)
