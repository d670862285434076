import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moelearn import (Activation, Dataset, InputDistribution, MoeModel,
                      sample_dataset, scores, solve_cqt)
from moelearn.cqt import apply_p2, apply_p3, gauss_hermite
from moelearn.errors import ConfigError, NumericalError
from moelearn.moments import (CAP_MULTIPLIER, CHUNK, MomentAccumulator, _median, accumulate,
                              finalize, raw_third_moment)
from moelearn.scores import Sym3, packed_size, score2_packed, score3_packed, score_moment

from conftest import make_model, orthogonal_gating, unit_rows


def _acc(d, activation, sigma, dist=None):
    dist = dist or InputDistribution.standard_gaussian(d)
    return MomentAccumulator(d, solve_cqt(activation, sigma), dist)


def test_empty_batch_leaves_accumulator_unchanged():
    acc = _acc(3, Activation.linear(), 0.1)
    accumulate(acc, (np.zeros((0, 3)), np.zeros(0)))
    assert acc.n_seen == 0 and not acc.chunks


@pytest.mark.parametrize("rows, labels", [(10, 9), (9, 10), (0, 3), (3, 0)])
def test_batch_with_unequal_row_counts_is_refused(rows, labels):
    """Neither the extra input rows nor the extra labels are dropped."""
    acc = _acc(4, Activation.linear(), 0.1)
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigError, match=f"{rows} input rows but {labels} labels"):
        accumulate(acc, (rng.standard_normal((rows, 4)), rng.standard_normal(labels)))
    assert not acc.chunks and acc.t2 is None and acc.t3 is None


def test_single_sample_at_origin():
    acc = _acc(2, Activation.linear(), 0.0)
    y = 1.7
    accumulate(acc, Dataset(np.zeros((1, 2)), np.array([y])))
    t2, t3 = finalize(acc)
    assert t3.frobenius() == 0.0                      # S3(0) = 0
    p2 = y**2                                          # gamma = 0 for linear
    assert np.allclose(t2, -p2 * np.eye(2))


def test_equal_batches_either_order_identical():
    model = make_model(1, k=2, d=4, sigma=0.1)
    dist = InputDistribution.standard_gaussian(4)
    data = sample_dataset(model, dist, 300, seed=5)
    a1 = _acc(4, Activation.linear(), 0.1)
    accumulate(a1, data)
    accumulate(a1, data)
    a2 = _acc(4, Activation.linear(), 0.1)
    accumulate(a2, data)
    accumulate(a2, data)
    f1, f2 = finalize(a1), finalize(a2)
    assert np.array_equal(f1[0].data, f2[0].data)
    assert np.array_equal(f1[1].data, f2[1].data)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 6), n=st.integers(1, 2 * CHUNK + 300),
       cuts=st.lists(st.integers(1, 2), max_size=2), n_nan=st.integers(0, 3),
       seed=st.integers(0, 2**16))
def test_split_calls_equal_one_call_bitwise(d, n, cuts, n_nan, seed):
    """Successive accumulate calls split at multiples of CHUNK give the same
    running sums and tallies as one call over the whole batch."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n) ** 3            # heavy tail: the cap rejects some
    y[rng.integers(0, n, n_nan)] = np.nan
    whole = _acc(d, Activation.relu(), 0.3)
    accumulate(whole, (x, y))
    split = _acc(d, Activation.relu(), 0.3)
    bounds = sorted({min(c * CHUNK, n) for c in cuts} | {0, n})
    for lo, hi in zip(bounds, bounds[1:]):
        accumulate(split, (x[lo:hi], y[lo:hi]))
    assert (split.n_seen, split.n_rejected) == (whole.n_seen, whole.n_rejected)
    assert split.n_seen + split.n_rejected == n
    assert np.array_equal(split.t2, whole.t2) and np.array_equal(split.t3, whole.t3)


def test_uniform_mglm_third_moment_matches_population():
    # two linear experts, no gating: T3 = 3 (a1^x3 + a2^x3); noiseless labels
    d, n = 4, 1_000_000
    a1 = np.ones(d) / 2.0
    a2 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    model = MoeModel(a=np.vstack([a1, a2]), w=np.zeros((1, d)), sigma=0.0,
                     activation=Activation.linear())
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=303)
    acc = _acc(d, Activation.linear(), 0.0)
    accumulate(acc, data)
    _, t3 = finalize(acc)
    pop = 3 * (np.einsum("a,b,c->abc", a1, a1, a1) + np.einsum("a,b,c->abc", a2, a2, a2))
    err = t3.to_dense() - pop
    # entrywise z-test against the per-entry Monte-Carlo standard error
    p3 = apply_p3(acc.cqt, data.y)
    per_entry = p3[:, None] * score3_packed(data.x, dist)
    se = per_entry.std(axis=0) / np.sqrt(n)
    packed_err = np.abs(Sym3.from_dense(err).data)
    assert np.all(packed_err <= 5 * se)
    assert np.median(packed_err) <= 10 / np.sqrt(n)


def test_quadrature_oracle_population_t3_sigmoid_d2():
    # independent oracle: integrate E[P3(y) | x] S3(x) over a 2-D Gauss-Hermite
    # grid and match both the closed form c3 sum E[p_i] a_i^x3 and the
    # Monte-Carlo accumulator
    d, sigma = 2, 0.25
    act = Activation.sigmoid()
    cqt = solve_cqt(act, sigma)
    a = np.vstack([np.array([0.6, 0.8]), np.array([1.0, 0.0])])
    model = MoeModel(a=a, w=np.zeros((1, d)), sigma=sigma, activation=act)
    z, wq = gauss_hermite(40)
    nodes = np.array(list(itertools.product(z, z)))
    weights = np.array([wq[i] * wq[j] for i, j in
                        itertools.product(range(40), repeat=2)])

    def p3_cond(x):   # E[P3(y) | x] with y = g + sigma eps
        m = act(x @ a.T)
        h = m**3 + 3 * m * sigma**2 + cqt.alpha * (m**2 + sigma**2) + cqt.beta * m
        return 0.5 * h[:, 0] + 0.5 * h[:, 1]

    s3 = score3_packed(nodes, InputDistribution.standard_gaussian(d))
    oracle = (weights * p3_cond(nodes)) @ s3
    closed = Sym3.from_dense(
        cqt.c3 * 0.5 * (np.einsum("a,b,c->abc", a[0], a[0], a[0])
                        + np.einsum("a,b,c->abc", a[1], a[1], a[1]))).data
    assert np.allclose(oracle, closed, atol=1e-6)

    data = sample_dataset(model, InputDistribution.standard_gaussian(d), 400000, seed=41)
    acc = MomentAccumulator(d, cqt, InputDistribution.standard_gaussian(d))
    accumulate(acc, data)
    _, t3 = finalize(acc)
    assert np.max(np.abs(t3.data - oracle)) <= 8.0 / np.sqrt(400000)


def test_quadrature_oracle_population_t3_linear_d3_with_gating():
    # nonzero gating row orthogonal to both regressors; the closed form still
    # holds and E[p_1] = 1/2 by symmetry of the sigmoid
    d, sigma = 3, 0.1
    act = Activation.linear()
    cqt = solve_cqt(act, sigma)
    a = np.vstack([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    w = np.array([[0.0, 0.0, 1.0]])
    model = MoeModel(a=a, w=w, sigma=sigma, activation=act)
    z, wq = gauss_hermite(32)
    nodes = np.array(list(itertools.product(z, z, z)))
    weights = np.array([wq[i] * wq[j] * wq[k] for i, j, k in
                        itertools.product(range(32), repeat=3)])

    def p3_cond(x):
        m = x @ a.T
        h = m**3 + 3 * m * sigma**2 + cqt.beta * m
        f = 1.0 / (1.0 + np.exp(-x @ w[0]))
        return f * h[:, 0] + (1 - f) * h[:, 1]

    s3 = score3_packed(nodes, InputDistribution.standard_gaussian(d))
    oracle = (weights * p3_cond(nodes)) @ s3
    closed = Sym3.from_dense(
        6 * 0.5 * (np.einsum("a,b,c->abc", a[0], a[0], a[0])
                   + np.einsum("a,b,c->abc", a[1], a[1], a[1]))).data
    assert np.allclose(oracle, closed, atol=1e-6)


def test_general_k_second_moment_population():
    # T2 = 2 sum E[p_i] a_i a_i^T for linear experts and orthogonal gating
    rng = np.random.default_rng(10)
    k, d, n = 3, 6, 400000
    model = make_model(31, k=k, d=d, sigma=0.1)
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=32)
    acc = _acc(d, Activation.linear(), 0.1)
    accumulate(acc, data)
    t2, _ = finalize(acc)
    probs = model.gating_probs(dist.sample(400000, np.random.default_rng(1)))
    pbar = probs.mean(axis=0)
    pop = 2 * sum(pbar[i] * np.outer(model.a[i], model.a[i]) for i in range(k))
    assert np.max(np.abs(t2 - pop)) <= 0.05


def test_outlier_rejection_and_tally():
    model = make_model(3, k=2, d=4, sigma=0.1)
    dist = InputDistribution.standard_gaussian(4)
    data = sample_dataset(model, dist, 5000, seed=8)
    data.y[17] = 1e7    # corrupted record would dominate the cubed label
    acc = _acc(4, Activation.linear(), 0.1)
    accumulate(acc, data)
    assert acc.n_rejected >= 1
    assert acc.n_seen == 5000 - acc.n_rejected
    _, t3 = finalize(acc)
    assert np.all(np.abs(t3.data) < 50.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_label_rejects_only_its_own_row(bad):
    """The cap's median is taken over finite |P3(y)|: one bad label must not
    turn the cap into NaN and reject its whole chunk."""
    model = make_model(4, k=2, d=5, sigma=0.1, activation="relu")
    dist = InputDistribution.standard_gaussian(5)
    data = sample_dataset(model, dist, 10000, seed=9)
    y = data.y.copy()
    y[5000] = bad
    starts = range(0, 10000, CHUNK)
    clean, dirty = [], []
    for a in starts:                     # one accumulator per chunk
        rows = slice(a, a + CHUNK)
        c, b = _acc(5, model.activation, 0.1), _acc(5, model.activation, 0.1)
        accumulate(c, (data.x[rows], data.y[rows]))
        with np.errstate(invalid="ignore"):   # P3(inf) = inf - inf
            accumulate(b, (data.x[rows], y[rows]))
        clean.append(c)
        dirty.append(b)
    assert sum(c.n_rejected for c in clean) > 0   # ReLU labels reach the cap
    for i, (c, b) in enumerate(zip(clean, dirty)):
        if i == 5000 // CHUNK:
            assert b.n_rejected == c.n_rejected + 1
            assert np.isfinite(b.t2).all() and np.isfinite(b.t3).all()
        else:                            # the chunks without the bad label
            assert (b.n_seen, b.n_rejected) == (c.n_seen, c.n_rejected)
            assert np.array_equal(b.t2, c.t2) and np.array_equal(b.t3, c.t3)
    whole = _acc(5, model.activation, 0.1)    # one call sums the same chunks
    with np.errstate(invalid="ignore"):
        accumulate(whole, (data.x, y))
    assert whole.n_rejected == sum(b.n_rejected for b in dirty)
    assert np.array_equal(whole.t3, dirty[0].t3 + dirty[1].t3 + dirty[2].t3)


def test_finalize_empty_raises():
    acc = _acc(2, Activation.linear(), 0.0)
    with pytest.raises(NumericalError):
        finalize(acc)


def test_raw_third_moment_vanishes_for_uniform_linear_mixture():
    # no label transform and no gating: E[y S3] = 0 for linear experts
    d, n = 4, 1_000_000
    rng = np.random.default_rng(3)
    model = MoeModel(a=unit_rows(rng, 2, d), w=np.zeros((1, d)), sigma=0.1,
                     activation=Activation.linear())
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=44)
    raw = raw_third_moment(data, dist)
    assert raw.frobenius() <= 20.0 / np.sqrt(n)
    # the transformed tensor on the same data is rank-2 with weight 3 each
    acc = _acc(d, Activation.linear(), 0.1)
    accumulate(acc, data)
    _, t3 = finalize(acc)
    assert t3.frobenius() > 2.0


def test_raw_tensor_keeps_gating_cross_terms_sigmoid():
    # three sigmoid experts, gating rows orthogonal to the regressor span: the
    # untransformed tensor has signal along the gating direction, the
    # transformed one does not
    rng = np.random.default_rng(5)
    k, d, n = 3, 6, 100000
    a = unit_rows(rng, k, d)
    w = orthogonal_gating(rng, a, k - 1)
    model = MoeModel(a=a, w=w, sigma=0.1, activation=Activation.sigmoid())
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=46)
    raw = raw_third_moment(data, dist)
    acc = _acc(d, Activation.sigmoid(), 0.1, dist)
    accumulate(acc, data)
    _, cqt_t3 = finalize(acc)
    w1 = w[0]
    ratio_raw = np.linalg.norm(raw.collapse_matrix(w1)) / raw.frobenius()
    ratio_cqt = np.linalg.norm(cqt_t3.collapse_matrix(w1)) / cqt_t3.frobenius()
    assert ratio_raw > 0.3
    assert ratio_raw > 2.5 * ratio_cqt


def test_zero_inputs_give_zero_raw_tensor():
    data = Dataset(np.zeros((10, 3)), np.ones(10))
    raw = raw_third_moment(data, InputDistribution.standard_gaussian(3))
    assert raw.frobenius() == 0.0


def test_rank_k_component_dominates_transformed_tensor():
    # the best rank-k symmetric part carries nearly all of the tensor mass;
    # at n = 1e5 roughly one percent of ||T3||^2 is sampling noise
    from moelearn.decomposition import recover_regressors
    dist = InputDistribution.standard_gaussian(10)
    for k, floor in ((2, 0.985), (4, 0.95)):
        model = make_model(17 + k, k=k, d=10, sigma=0.1)
        data = sample_dataset(model, dist, 100000, seed=99 + k)
        acc = _acc(10, Activation.linear(), 0.1)
        accumulate(acc, data)
        t2, t3 = finalize(acc)
        dec = recover_regressors(t2, t3, k, acc.cqt, seed=1)
        dense = t3.to_dense()
        approx = sum(wt * np.einsum("a,b,c->abc", v, v, v)
                     for wt, v in zip(dec.weights, dec.vectors))
        frac = 1 - np.linalg.norm(dense - approx) ** 2 / np.linalg.norm(dense) ** 2
        assert frac >= floor


def test_orthogonal_complement_contraction_shrinks_with_n():
    # || T3(w, ., .) || decays like 1/sqrt(n) when w is orthogonal to the span
    model = make_model(23, k=2, d=6, sigma=0.1)
    dist = InputDistribution.standard_gaussian(6)
    norms = {}
    for n in (20000, 320000):
        data = sample_dataset(model, dist, n, seed=55)
        acc = _acc(6, Activation.linear(), 0.1)
        accumulate(acc, data)
        _, t3 = finalize(acc)
        norms[n] = np.linalg.norm(t3.collapse_matrix(model.w[0]))
    # 16x the samples: expect a 4x reduction, allow a factor-2 band
    assert norms[320000] <= norms[20000] / 2.0
    assert norms[320000] <= 10.0 / np.sqrt(320000) * 6


def test_accumulate_memory_is_bounded_at_d60():
    """One 4096-row chunk at d = 60. A full packed S3 for it would take
    4096 x 39,711 floats (1.3 GB); blocks of packed columns keep the peak
    far below that."""
    d, n = 60, 4096
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    acc = _acc(d, Activation.linear(), 0.5)
    tracemalloc.start()
    try:
        accumulate(acc, (x, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.n_seen + acc.n_rejected == n
    assert peak < 64 * 2**20


def test_accumulate_peak_is_one_transposed_chunk_and_one_block_at_d40():
    """One Gaussian 4096-row chunk at d = 40, the index tables built afresh:
    the traced peak stays within the chunk's transposed copy (8 d n bytes),
    one block of 16 packed columns (8 * 16 n), the pair row (8 n), 96 bytes
    per packed S3 entry for the O(P) tables (indices, multiplicities, sums,
    run lists), and 256 KB of slack. Blocks of 64 columns, or index tables
    built as Python tuples, each break it."""
    d, n = 40, CHUNK
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    acc = _acc(d, Activation.linear(), 0.5)
    scores.packed_indices.cache_clear()
    scores._runs.cache_clear()
    tracemalloc.start()
    try:
        accumulate(acc, (x, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert acc.n_seen + acc.n_rejected == n
    assert peak <= 8 * d * n + 8 * 16 * n + 8 * n + 96 * packed_size(d, 3) + 2**18


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.one_of(st.integers(min_value=1, max_value=300), st.just(CHUNK)),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
def test_chunk_moments_bitwise_match_full_width_products_on_mixtures(one_blas_thread, d, n,
                                                                      components, seed):
    """One chunk's T2 and T3, both built from one split of the chunk into its
    mixture components, equal the kept labels' transforms times the full-width
    score matrices bit for bit."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(components))
    dist = InputDistribution.gaussian_mixture(weights, rng.standard_normal((components, d)))
    x, y = dist.sample(n, rng), rng.standard_normal(n)
    acc = _acc(d, Activation.linear(), 0.1, dist)
    accumulate(acc, (x, y))
    p2, p3 = apply_p2(acc.cqt, y), apply_p3(acc.cqt, y)
    kept = np.abs(p3) <= CAP_MULTIPLIER * max(np.median(np.abs(p3)), 1e-12)
    assert acc.n_seen == kept.sum()
    assert np.array_equal(acc.t2, p2[kept] @ score2_packed(x[kept], dist))
    assert np.array_equal(acc.t3, p3[kept] @ score3_packed(x[kept], dist))


def _laid_out(x, layout):
    """The values of x, C-ordered, Fortran-ordered or on strided rows."""
    if layout == "strided":
        rows = np.empty((2 * x.shape[0], x.shape[1]))[::2]
        rows[...] = x
        return rows
    return np.asarray(x, order=layout)


@pytest.mark.parametrize("order", ["C", "F", "strided"])
@pytest.mark.parametrize("mixture", [False, True], ids=["gaussian", "mixture"])
def test_chunk_that_keeps_every_row_equals_its_copied_rows_bitwise(mixture, order):
    """A chunk that keeps every row is read in place; its T2 and T3 equal
    those of the same rows copied out past one rejected outlier row."""
    d, n = 5, 700
    rng = np.random.default_rng(31)
    dist = (InputDistribution.gaussian_mixture([0.4, 0.6], rng.standard_normal((2, d)))
            if mixture else InputDistribution.standard_gaussian(d))
    x = _laid_out(dist.sample(n, rng), order)
    y = rng.uniform(1.0, 1.5, n)          # |P3(y)| within a few medians: all kept
    in_place = _acc(d, Activation.linear(), 0.1, dist)
    accumulate(in_place, (x, y))
    copied = _acc(d, Activation.linear(), 0.1, dist)
    accumulate(copied, (np.vstack([x, np.zeros((1, d))]), np.append(y, 1e6)))
    assert (in_place.n_seen, in_place.n_rejected) == (n, 0)
    assert (copied.n_seen, copied.n_rejected) == (n, 1)
    assert np.array_equal(in_place.t2, copied.t2) and np.array_equal(in_place.t3, copied.t3)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 6), components=st.integers(1, 3),
       n=st.one_of(st.integers(1, 300), st.integers(CHUNK - 200, CHUNK + 200)),
       seed=st.integers(0, 2**31 - 1))
@example(d=5, components=2, n=700, seed=31)
def test_score_moments_do_not_depend_on_memory_order(d, components, n, seed):
    """accumulate's T2 and T3 sums, raw_third_moment and score_moment give the
    bits of the batch's C-ordered copy for Fortran-ordered and row-strided
    batches, for Gaussian inputs (one component) and mixtures of two or three."""
    rng = np.random.default_rng(seed)
    dist = (InputDistribution.gaussian_mixture(rng.dirichlet(np.ones(components)),
                                               rng.standard_normal((components, d)))
            if components > 1 else InputDistribution.standard_gaussian(d))
    x, y = np.ascontiguousarray(dist.sample(n, rng)), rng.standard_normal(n)

    def sums(x):
        acc = _acc(d, Activation.linear(), 0.1, dist)
        accumulate(acc, (x, y))
        return (acc.t2, acc.t3, raw_third_moment(Dataset(x, y), dist).data,
                score_moment(x, dist, y, 2), score_moment(x, dist, y, 3))

    expected = sums(x)
    for layout in ("F", "strided"):
        for got, want in zip(sums(_laid_out(x, layout)), expected):
            assert np.array_equal(got, want), layout


# non-negative finite values: exact ties, zeros, subnormals, values near 1e300
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.0, 1e300]),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
    st.floats(0.0, 1e3), st.floats(1e299, 1e301))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2048).flatmap(lambda half: st.sampled_from([2 * half - 1, 2 * half])
                                    ).flatmap(lambda n: hnp.arrays(
                                        np.float64, n, elements=_MEDIAN_VALUES,
                                        fill=_MEDIAN_VALUES)))
def test_median_has_np_median_bits(values):
    """The accumulator's partition median returns np.median's bits, at odd
    and even lengths from 1 to 4096."""
    expected = np.median(values)
    assert np.float64(_median(values.copy())).tobytes() == expected.tobytes()
