import ctypes
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelearn import (InputDistribution, Sym2, Sym3, score2_gaussian,
                      score3_gaussian, score_gmm, scores)
from moelearn.errors import ConfigError
from moelearn.scores import (hermite3_packed, packed_indices, packed_size,
                             score2_packed, score3_packed, score_moment)


def test_score2_examples():
    assert np.allclose(score2_gaussian(np.zeros(3)).to_dense(), -np.eye(3))
    assert score2_gaussian(np.array([2.0])).to_dense()[0, 0] == pytest.approx(3.0)
    got = score2_gaussian(np.array([1.0, 1.0])).to_dense()
    assert np.allclose(got, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_score3_examples():
    assert score3_gaussian(np.zeros(4)).frobenius() == 0.0
    # d = 1 reduces to the third Hermite polynomial
    for t in (-2.0, 0.5, 3.0):
        assert score3_gaussian(np.array([t])).to_dense()[0, 0, 0] == pytest.approx(t**3 - 3 * t)
    dense = score3_gaussian(np.array([1.0, 0.0])).to_dense()
    assert dense[0, 0, 0] == pytest.approx(-2.0)   # 1 - 3*1
    assert dense[0, 1, 1] == pytest.approx(-1.0)   # 0 - x0*d_11


def _gauss_density(x):
    return np.exp(-0.5 * np.sum(x**2)) / (2 * np.pi) ** (len(x) / 2)


def _numeric_third_score(density, x, h=1e-3):
    """(-1)^3 grad^3 density / density by central differences."""
    d = len(x)
    t = np.zeros((d, d, d))
    for j, k, l in itertools.product(range(d), repeat=3):
        def shift(sj, sk, sl):
            xx = x.copy()
            xx[j] += sj * h
            xx[k] += sk * h
            xx[l] += sl * h
            return density(xx)
        val = 0.0
        for sj in (1, -1):
            for sk in (1, -1):
                for sl in (1, -1):
                    val += sj * sk * sl * shift(sj, sk, sl)
        t[j, k, l] = val / (8 * h**3)
    return -t / density(x)


def test_score3_matches_numeric_density_derivatives():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    numeric = _numeric_third_score(_gauss_density, x)
    assert np.allclose(score3_gaussian(x).to_dense(), numeric, atol=5e-5)


def test_gmm_score_degenerate_single_component():
    dist = InputDistribution.gaussian_mixture([1.0], np.zeros((1, 3)))
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(3)
        assert np.allclose(score_gmm(x, dist, 3).data, score3_gaussian(x).data)
        assert np.allclose(score_gmm(x, dist, 2).data, score2_gaussian(x).data)


def test_gmm_score_two_component_symmetry_point():
    mu = np.array([0.7, -0.2, 0.4])
    dist = InputDistribution.gaussian_mixture([0.5, 0.5], np.vstack([mu, -mu]))
    got = score_gmm(np.zeros(3), dist, 2).to_dense()
    assert np.allclose(got, np.outer(mu, mu) - np.eye(3), atol=1e-12)


def test_gmm_score_matches_numeric_density_derivatives():
    means = np.array([[0.8, -0.5], [-0.3, 1.1]])
    weights = np.array([0.3, 0.7])
    dist = InputDistribution.gaussian_mixture(weights, means)

    def density(x):
        return sum(w * np.exp(-0.5 * np.sum((x - m) ** 2)) / (2 * np.pi)
                   for w, m in zip(weights, means))

    x = np.array([0.45, -0.2])
    numeric3 = _numeric_third_score(density, x)
    assert np.allclose(score_gmm(x, dist, 3).to_dense(), numeric3, atol=5e-5)
    # second order by central differences as well
    h = 1e-4
    d = 2
    hess = np.zeros((d, d))
    for j, k in itertools.product(range(d), repeat=2):
        def shift(sj, sk):
            xx = x.copy()
            xx[j] += sj * h
            xx[k] += sk * h
            return density(xx)
        hess[j, k] = (shift(1, 1) - shift(1, -1) - shift(-1, 1) + shift(-1, -1)) / (4 * h**2)
    assert np.allclose(score_gmm(x, dist, 2).to_dense(), hess / density(x), atol=1e-5)


def test_gmm_score_finite_in_far_tails():
    dist = InputDistribution.gaussian_mixture([0.5, 0.5],
                                              np.array([[30.0, 0.0], [-30.0, 0.0]]))
    s = score_gmm(np.array([500.0, -300.0]), dist, 3)
    assert np.all(np.isfinite(s.data))


def test_score_zero_mean_monte_carlo():
    rng = np.random.default_rng(8)
    n, d = 100000, 4
    means = np.array([[0.5, 0, 0, 0.5], [-0.5, 0.5, 0, 0]])
    dist = InputDistribution.gaussian_mixture([0.4, 0.6], means)
    x = dist.sample(n, rng)
    from moelearn.scores import score2_packed
    m = score2_packed(x, dist).mean(axis=0)
    assert np.max(np.abs(m)) <= 5.0 / np.sqrt(n)


def test_stein_identity_third_order():
    # f(x) = <a, x>^3 has constant third derivative tensor 6 a x a x a
    rng = np.random.default_rng(12)
    d, n = 4, 100000
    a = rng.standard_normal(d)
    a /= np.linalg.norm(a)
    x = rng.standard_normal((n, d))
    f = (x @ a) ** 3
    s3 = hermite3_packed(x)
    est = f @ s3 / n
    target = Sym3.from_dense(6 * np.einsum("a,b,c->abc", a, a, a)).data
    se = np.std(f[:, None] * s3, axis=0) / np.sqrt(n)
    assert np.all(np.abs(est - target) <= 10 * se)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_packed_roundtrip_is_lossless(d, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((d, d, d))
    t = (t + t.transpose(0, 2, 1) + t.transpose(1, 0, 2)
         + t.transpose(1, 2, 0) + t.transpose(2, 0, 1) + t.transpose(2, 1, 0)) / 6
    back = Sym3.from_dense(t).to_dense()
    assert np.array_equal(back, back.transpose(1, 0, 2))
    assert np.allclose(back, t, atol=0)
    m = rng.standard_normal((d, d))
    m = (m + m.T) / 2
    assert np.allclose(Sym2.from_dense(m).to_dense(), m, atol=0)


def test_packed_sizes_and_multiplicities():
    (i, j, l), mult = packed_indices(3, 3)
    assert i.shape[0] == packed_size(3, 3) == 10
    assert mult.sum() == 27  # multiplicities tile the dense cube


def test_contraction_examples():
    d = 2
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    t = Sym3.from_dense(np.einsum("a,b,c->abc", e1, e1, e1))
    assert t.contract(e1, e1, e1) == pytest.approx(1.0)
    assert np.allclose(t.collapse(e2), np.zeros(2))
    t2 = Sym3.from_dense(np.einsum("a,b,c->abc", e1, e1, e1)
                         + 2 * np.einsum("a,b,c->abc", e2, e2, e2))
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert t2.contract(u, u, u) == pytest.approx(3.0 / 2**1.5)


def test_contractions_match_dense_einsum():
    rng = np.random.default_rng(3)
    d = 5
    dense = rng.standard_normal((d, d, d))
    dense = sum(dense.transpose(p) for p in itertools.permutations(range(3))) / 6
    t = Sym3.from_dense(dense)
    u, v, w = rng.standard_normal((3, d))
    assert t.contract(u, v, w) == pytest.approx(np.einsum("jkl,j,k,l->", dense, u, v, w))
    assert t.contract(u, v, w) == pytest.approx(t.contract(w, u, v))  # symmetry
    assert np.allclose(t.collapse(v), np.einsum("jkl,k,l->j", dense, v, v))
    wmap = rng.standard_normal((d, 3))
    assert np.allclose(t.contract_all_modes(wmap),
                       np.einsum("jkl,ja,kb,lc->abc", dense, wmap, wmap, wmap))
    assert t.frobenius() == pytest.approx(np.linalg.norm(dense))


def test_score_gmm_requires_mixture():
    with pytest.raises(ConfigError):
        score_gmm(np.zeros(3), InputDistribution.standard_gaussian(3), 2)
    dist = InputDistribution.gaussian_mixture([1.0], np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        score_gmm(np.zeros(3), dist, 4)


# ---------------------------------------------------------------------------
# blocked moment kernel
# ---------------------------------------------------------------------------

def _openblas_thread_calls():
    """(get, set) for the thread count of the OpenBLAS this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    return None


@pytest.fixture(scope="module")
def one_blas_thread():
    """BLAS on one thread, as the benchmark runs it. With more threads BLAS may
    split one product by its width, so a full-width product stops being one
    fixed reference."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    get, set_ = calls
    before = get()
    set_(1)
    yield
    set_(before)


def _input_law(kind, d, rng):
    if kind == "gaussian":
        return InputDistribution.standard_gaussian(d)
    return InputDistribution.gaussian_mixture([0.3, 0.7], rng.standard_normal((2, d)))


# d, n, input law, order, share of special weights, seed
_KERNEL_CASES = (st.integers(min_value=1, max_value=12),
                 st.one_of(st.integers(min_value=1, max_value=300), st.just(4096)),
                 st.sampled_from(["gaussian", "gmm"]), st.sampled_from([2, 3]),
                 st.sampled_from([0.0, 0.1, 0.5]), st.integers(min_value=0, max_value=2**31 - 1))


def _kernel_case(d, n, kind, order, frac_special, seed, specials):
    """Inputs, law, weights (a share of them drawn from ``specials``) and the
    full-width reference of one kernel case."""
    rng = np.random.default_rng(seed)
    dist = _input_law(kind, d, rng)
    x = dist.sample(n, rng)
    w = rng.standard_normal(n)
    special = rng.random(n) < frac_special
    w[special] = rng.choice(specials, size=int(special.sum()))
    return x, dist, w, score2_packed if order == 2 else score3_packed


@pytest.mark.parametrize("block", [1, 3, 7, 64])
@settings(max_examples=25, deadline=None)
@given(*_KERNEL_CASES)
def test_score_moment_matches_full_width_product(block, d, n, kind, order, frac_special,
                                                 seed):
    """On any BLAS and thread count: equal to rounding, at block widths that
    leave partial and one-column last blocks; finite weights, some zero."""
    x, dist, w, full = _kernel_case(d, n, kind, order, frac_special, seed, [0.0])
    with mock.patch.object(scores, "BLOCK_COLUMNS", block):
        got = score_moment(x, dist, w, order)
    assert np.allclose(got, w @ full(x, dist))


@pytest.mark.parametrize("block", [64, 128, 192])
@settings(max_examples=25, deadline=None)
@given(*_KERNEL_CASES)
def test_score_moment_bitwise_matches_full_width_product(one_blas_thread, block, d, n, kind,
                                                         order, frac_special, seed):
    """Every d up to 12 leaves a partial last block at these widths; weights
    include zeros and +-1e300."""
    x, dist, w, full = _kernel_case(d, n, kind, order, frac_special, seed,
                                    [0.0, 1e300, -1e300])
    with mock.patch.object(scores, "BLOCK_COLUMNS", block), np.errstate(all="ignore"):
        got = score_moment(x, dist, w, order)
        want = w @ full(x, dist)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("kind", ["gaussian", "gmm"])
def test_score_moment_one_column_remainder(one_blas_thread, kind):
    """P2 = 8001 at d = 126: one column is left after the last block of 64."""
    rng = np.random.default_rng(7)
    dist = _input_law(kind, 126, rng)
    for n in (5, 100):
        x = dist.sample(n, rng)
        w = rng.standard_normal(n)
        assert np.array_equal(score_moment(x, dist, w, 2), w @ score2_packed(x, dist))
