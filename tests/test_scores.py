import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelearn import InputDistribution, Sym3, scores
from moelearn.scores import (packed_indices, packed_size, score2_packed, score3_packed,
                             score_moment)


def _score(x, order, dist=None):
    """Score tensor at one point, from the batched packed kernel on a one-row
    batch: a dense matrix for order 2, a Sym3 for order 3; standard Gaussian
    inputs unless ``dist`` is given."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    dist = dist or InputDistribution.standard_gaussian(d)
    if order == 3:
        return Sym3(d, score3_packed(x[None, :], dist)[0])
    (i, j), _ = packed_indices(d, 2)
    dense = np.zeros((d, d))
    dense[i, j] = dense[j, i] = score2_packed(x[None, :], dist)[0]
    return dense


def test_score2_examples():
    assert np.allclose(_score(np.zeros(3), 2), -np.eye(3))
    assert _score(np.array([2.0]), 2)[0, 0] == pytest.approx(3.0)
    got = _score(np.array([1.0, 1.0]), 2)
    assert np.allclose(got, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_score3_examples():
    assert _score(np.zeros(4), 3).frobenius() == 0.0
    # d = 1 reduces to the third Hermite polynomial
    for t in (-2.0, 0.5, 3.0):
        assert _score(np.array([t]), 3).to_dense()[0, 0, 0] == pytest.approx(t**3 - 3 * t)
    dense = _score(np.array([1.0, 0.0]), 3).to_dense()
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
    assert np.allclose(_score(x, 3).to_dense(), numeric, atol=5e-5)


def test_gmm_score_degenerate_single_component():
    dist = InputDistribution.gaussian_mixture([1.0], np.zeros((1, 3)))
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(3)
        assert np.allclose(_score(x, 3, dist).data, _score(x, 3).data)
        assert np.allclose(_score(x, 2, dist).data, _score(x, 2).data)


def test_gmm_score_two_component_symmetry_point():
    mu = np.array([0.7, -0.2, 0.4])
    dist = InputDistribution.gaussian_mixture([0.5, 0.5], np.vstack([mu, -mu]))
    got = _score(np.zeros(3), 2, dist)
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
    assert np.allclose(_score(x, 3, dist).to_dense(), numeric3, atol=5e-5)
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
    assert np.allclose(_score(x, 2, dist), hess / density(x), atol=1e-5)


def test_gmm_score_finite_in_far_tails():
    dist = InputDistribution.gaussian_mixture([0.5, 0.5],
                                              np.array([[30.0, 0.0], [-30.0, 0.0]]))
    s = _score(np.array([500.0, -300.0]), 3, dist)
    assert np.all(np.isfinite(s.data))


def test_score_zero_mean_monte_carlo():
    rng = np.random.default_rng(8)
    n, d = 100000, 4
    means = np.array([[0.5, 0, 0, 0.5], [-0.5, 0.5, 0, 0]])
    dist = InputDistribution.gaussian_mixture([0.4, 0.6], means)
    x = dist.sample(n, rng)
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
    s3 = score3_packed(x, InputDistribution.standard_gaussian(d))
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


def test_packed_sizes_and_multiplicities():
    (i, j, l), mult = packed_indices(3, 3)
    assert i.shape[0] == packed_size(3, 3) == 10
    assert mult.sum() == 27  # multiplicities tile the dense cube


def test_packed_indices_match_combinations_with_replacement():
    """The index tables against itertools' sorted tuples, the oracle: the same
    values in the same order and dtype, and each multiplicity the count of
    the tuple's distinct permutations."""
    for d in range(1, 41):
        for order in (2, 3):
            idx, mult = packed_indices(d, order)
            want = list(itertools.combinations_with_replacement(range(d), order))
            assert idx.dtype == np.intp and idx.shape == (order, len(want))
            assert list(zip(*idx.tolist())) == want
            assert mult.dtype == float
            assert mult.tolist() == [len(set(itertools.permutations(t))) for t in want]


def test_packed_indices_peak_memory_is_a_small_multiple_of_the_tables():
    """At d = 40 the tables are built in numpy arrays: the traced peak stays
    within twice the bytes returned. A list of the 11,480 index tuples as
    Python tuples took 3.7 times them."""
    tracemalloc.start()
    try:
        idx, mult = packed_indices.__wrapped__(40, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (idx.nbytes + mult.nbytes)


def test_contractions_match_dense_einsum():
    rng = np.random.default_rng(3)
    d = 5
    dense = rng.standard_normal((d, d, d))
    dense = sum(dense.transpose(p) for p in itertools.permutations(range(3))) / 6
    t = Sym3.from_dense(dense)
    v = rng.standard_normal(d)
    assert np.allclose(t.collapse_matrix(v), np.einsum("jkl,j->kl", dense, v))
    wmap = rng.standard_normal((d, 3))
    assert np.allclose(t.contract_all_modes(wmap),
                       np.einsum("jkl,ja,kb,lc->abc", dense, wmap, wmap, wmap))
    assert t.frobenius() == pytest.approx(np.linalg.norm(dense))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_contract_all_modes_bitwise_matches_per_term_path_search(d, data, seed):
    """One path search per call gives each permutation term the contraction
    numpy's optimize=True einsum chooses for it."""
    k = data.draw(st.integers(min_value=1, max_value=min(d, 5)))
    rng = np.random.default_rng(seed)
    t = Sym3(d, rng.standard_normal(packed_size(d, 3)))
    w = rng.standard_normal((d, k))
    (i, j, l), mult = packed_indices(d, 3)
    coef = t.data * (mult / 6.0)
    rows = (w[i], w[j], w[l])
    want = None
    for a, b, c in itertools.permutations(range(3)):
        term = np.einsum("p,pa,pb,pc->abc", coef, rows[a], rows[b], rows[c], optimize=True)
        want = term if want is None else want + term
    assert np.array_equal(t.contract_all_modes(w), want)


# ---------------------------------------------------------------------------
# blocked moment kernel
# ---------------------------------------------------------------------------

# Finite special inputs, and those Dataset rejects but the kernel still takes.
_FINITE_SPECIALS = [0.0, -0.0, 1e200, -1e200, 5e-324, -5e-324]
_NONFINITE_SPECIALS = [np.inf, -np.inf, np.nan, -np.nan]


def _plain_hermite(x, order):
    """(n, P) packed Hermite rows straight from the formula: one column per
    packed tuple, factors multiplied left to right, then the deltas in the
    order j == l (-x_i), i == l (-x_j), i == j (-x_l)."""
    cols = []
    for t in packed_indices(x.shape[1], order)[0].T:
        if order == 2:
            i, l = t
            col = x[:, i] * x[:, l]
            if i == l:
                col = col - 1.0
        else:
            i, j, l = t
            col = x[:, i] * x[:, j] * x[:, l]
            if j == l:
                col = col - x[:, i]
            if i == l:
                col = col - x[:, j]
            if i == j:
                col = col - x[:, l]
        cols.append(col)
    return np.stack(cols, axis=1)


def _plain_score(x, dist, order):
    """Packed score rows: the Hermite rows for Gaussian inputs; for a mixture,
    responsibility times the centred Hermite rows, added from +0.0 in
    component order."""
    if dist.kind == "gaussian":
        return _plain_hermite(x, order)
    r = scores.gmm_responsibilities(x, dist)
    total = np.zeros((x.shape[0], packed_size(x.shape[1], order)))
    for c, mean in enumerate(dist.means):
        total = total + r[:, c:c + 1] * _plain_hermite(x - mean, order)
    return total


def _special_batch(kind, d, n, frac_special, finite, seed):
    rng = np.random.default_rng(seed)
    dist = _input_law(kind, d, rng)
    x = dist.sample(n, rng)
    specials = _FINITE_SPECIALS + ([] if finite else _NONFINITE_SPECIALS)
    special = rng.random(x.shape) < frac_special
    x[special] = rng.choice(specials, size=int(special.sum()))
    if kind == "gmm":
        # entries at the first mean centre to +0.0 there, so some products
        # are -0.0, which a component sum started from +0.0 turns into +0.0
        at_mean = rng.random(x.shape) < frac_special
        x[at_mean] = np.broadcast_to(dist.means[0], x.shape)[at_mean]
    return x, dist


def _assert_same_bits(got, want, finite):
    """Byte for byte, NaN sign bits included, for finite inputs. With NaN or
    inf inputs two NaNs of opposite sign can meet in a product; IEEE 754 does
    not fix which one a product returns, and numpy returns the left one in
    the vector body of a loop and the right one in its scalar tail. There
    every entry but the NaNs must match byte for byte, and the NaNs must sit
    in the same places."""
    assert got.shape == want.shape
    if finite:
        assert got.tobytes() == want.tobytes()
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40),
       st.sampled_from(["gaussian", "gmm"]), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 0.2, 0.6]), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_score_packed_bitwise_matches_plain_formula(d, n, kind, order, frac_special, finite,
                                                    seed):
    """On inputs with +-0, +-1e200 and subnormals, and +-inf and +-NaN too
    when not ``finite``."""
    x, dist = _special_batch(kind, d, n, frac_special, finite, seed)
    packed = score2_packed if order == 2 else score3_packed
    with np.errstate(all="ignore"):
        _assert_same_bits(packed(x, dist), _plain_score(x, dist, order), finite)


@pytest.mark.parametrize("finite", [True, False])
@pytest.mark.parametrize("kind", ["gaussian", "gmm"])
@pytest.mark.parametrize("d, order", [(11, 3), (12, 3), (12, 2)])
def test_score_blocks_bitwise_match_plain_formula_where_runs_cross_blocks(kind, d, order,
                                                                          finite):
    """Each block of BLOCK_COLUMNS (16) columns, as score_moment builds it,
    where shared-prefix runs cross block edges (at d = 11 a run with i == j
    does)."""
    x, dist = _special_batch(kind, d, 50, 0.2, finite, d)
    blocks = scores._column_blocks(packed_size(d, order))
    # some block starts inside a run: its first piece's l is past the prefix
    assert any(piece[3] != piece[2][-1] for piece in
               (scores._runs(d, order, b.start, b.stop)[0] for b in blocks))
    with np.errstate(all="ignore"):
        parts = scores.components(x, dist)
        work = scores._workspace(parts, scores.BLOCK_COLUMNS)
        want = _plain_score(x, dist, order)
        for cols in blocks:
            got = scores._score_columns(parts, order, cols, work)
            _assert_same_bits(got, want[:, cols], finite)


def _input_law(kind, d, rng):
    """The standard Gaussian, or a mixture of one to three components: one
    whose first component is also its last, the 0.3/0.7 pair, or a sum of
    three terms."""
    if kind == "gaussian":
        return InputDistribution.standard_gaussian(d)
    weights = ([1.0], [0.3, 0.7], [0.2, 0.3, 0.5])[rng.integers(3)]
    return InputDistribution.gaussian_mixture(weights, rng.standard_normal((len(weights), d)))


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


@pytest.mark.parametrize("block", [16, 64, 128, 192])
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


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
def test_score_moment_at_16_columns_bitwise_matches_64_at_d40(one_blas_thread, weights,
                                                               order):
    """The wide benchmark shape, d = 40 and one 4096-row chunk, on Gaussian
    and mixture inputs: blocks of 16 columns give the bits of blocks of 64."""
    d, n = 40, 4096
    rng = np.random.default_rng(40)
    dist = (InputDistribution.standard_gaussian(d) if weights is None else
            InputDistribution.gaussian_mixture(weights, rng.standard_normal((2, d))))
    x, w = dist.sample(n, rng), rng.standard_normal(n)
    got = {}
    for block in (16, 64):
        with mock.patch.object(scores, "BLOCK_COLUMNS", block):
            got[block] = score_moment(x, dist, w, order)
    assert np.array_equal(got[16], got[64])


def _assert_remainder_bitwise(kind, d):
    rng = np.random.default_rng(7)
    dist = _input_law(kind, d, rng)
    for n in (5, 100):
        x = dist.sample(n, rng)
        w = rng.standard_normal(n)
        assert np.array_equal(score_moment(x, dist, w, 2), w @ score2_packed(x, dist))


@pytest.mark.parametrize("kind", ["gaussian", "gmm"])
def test_score_moment_one_column_remainder(one_blas_thread, kind):
    """P2 = 8001 at d = 126: one column is left after the last block of 16."""
    _assert_remainder_bitwise(kind, 126)


@pytest.mark.parametrize("kind", ["gaussian", "gmm"])
@pytest.mark.parametrize("d", [11, 125])
def test_score_moment_two_or_three_column_remainder(one_blas_thread, kind, d):
    """P2 = 66 at d = 11 and 7875 at d = 125: two and three columns are left
    after the last full block of 16."""
    _assert_remainder_bitwise(kind, d)
