import itertools
import tracemalloc

import numpy as np
import pytest

from moelearn import (Activation, Dataset, InputDistribution, MoeModel,
                      sample_dataset, solve_cqt)
from moelearn.cqt import apply_p3, gauss_hermite
from moelearn.errors import NumericalError
from moelearn.moments import (MomentAccumulator, accumulate, finalize,
                              load_tensor_dump, merge, raw_third_moment,
                              save_tensor_dump)
from moelearn.scores import Sym3, hermite3_packed, score3_packed

from conftest import make_model, orthogonal_gating, unit_rows


def _acc(d, activation, sigma, dist=None):
    dist = dist or InputDistribution.standard_gaussian(d)
    return MomentAccumulator(d, solve_cqt(activation, sigma), dist)


def test_empty_batch_leaves_accumulator_unchanged():
    acc = _acc(3, Activation.linear(), 0.1)
    accumulate(acc, (np.zeros((0, 3)), np.zeros(0)))
    assert acc.n_seen == 0 and not acc.chunks


def test_single_sample_at_origin():
    acc = _acc(2, Activation.linear(), 0.0)
    y = 1.7
    accumulate(acc, Dataset(np.zeros((1, 2)), np.array([y])))
    t2, t3 = finalize(acc)
    assert t3.frobenius() == 0.0                      # S3(0) = 0
    p2 = y**2                                          # gamma = 0 for linear
    assert np.allclose(t2.to_dense(), -p2 * np.eye(2))


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


def test_merge_tree_order_is_bitwise_invariant():
    model = make_model(2, k=2, d=5, sigma=0.2)
    dist = InputDistribution.standard_gaussian(5)
    data = sample_dataset(model, dist, 9000, seed=6)
    parts = []
    # ranges aligned to the fixed chunk size so the partitioned accumulation
    # is bitwise identical to the serial one
    for i, (lo, hi) in enumerate([(0, 4096), (4096, 8192), (8192, 9000)]):
        acc = _acc(5, Activation.linear(), 0.2)
        accumulate(acc, data.slice(lo, hi), offset=lo)
        parts.append(acc)
    serial = _acc(5, Activation.linear(), 0.2)
    accumulate(serial, data)
    m1 = finalize(merge(merge(parts[0], parts[1]), parts[2]))
    m2 = finalize(merge(parts[0], merge(parts[1], parts[2])))
    m3 = finalize(merge(parts[2], parts[0], parts[1]))
    for got in (m2, m3):
        assert np.array_equal(m1[0].data, got[0].data)
        assert np.array_equal(m1[1].data, got[1].data)
    s = finalize(serial)
    assert np.array_equal(m1[1].data, s[1].data)


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

    s3 = hermite3_packed(nodes)
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

    oracle = (weights * p3_cond(nodes)) @ hermite3_packed(nodes)
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
    assert np.max(np.abs(t2.to_dense() - pop)) <= 0.05


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
    clean = _acc(5, model.activation, 0.1)
    accumulate(clean, data)
    y = data.y.copy()
    y[5000] = bad
    dirty = _acc(5, model.activation, 0.1)
    with np.errstate(invalid="ignore"):   # P3(inf) = inf - inf
        accumulate(dirty, (data.x, y))
    assert clean.n_rejected > 0          # ReLU labels reach the cap on their own
    assert dirty.n_rejected == clean.n_rejected + 1
    for c, b in zip(clean.chunks, dirty.chunks):
        if c.offset != 4096:             # the chunks without the bad label
            assert (c.kept, c.rejected) == (b.kept, b.rejected)
            assert np.array_equal(c.t3, b.t3)


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


def test_tensor_dump_roundtrip(tmp_path):
    model = make_model(5, k=2, d=4, sigma=0.1)
    dist = InputDistribution.standard_gaussian(4)
    data = sample_dataset(model, dist, 1000, seed=1)
    acc = _acc(4, Activation.linear(), 0.1)
    accumulate(acc, data)
    t2, t3 = finalize(acc)
    path = tmp_path / "tensors.moet"
    save_tensor_dump(path, t2, t3)
    assert path.read_bytes()[:4] == b"MOET"
    b2, b3 = load_tensor_dump(path)
    assert np.array_equal(b2.data, t2.data)
    assert np.array_equal(b3.data, t3.data)


def test_rank_k_component_dominates_transformed_tensor():
    # the best rank-k symmetric part carries nearly all of the tensor mass;
    # at n = 1e5 roughly one percent of ||T3||^2 is sampling noise
    from moelearn.decomposition import DecompositionOptions, recover_regressors
    dist = InputDistribution.standard_gaussian(10)
    for k, floor in ((2, 0.985), (4, 0.95)):
        model = make_model(17 + k, k=k, d=10, sigma=0.1)
        data = sample_dataset(model, dist, 100000, seed=99 + k)
        acc = _acc(10, Activation.linear(), 0.1)
        accumulate(acc, data)
        t2, t3 = finalize(acc)
        dec = recover_regressors(t2, t3, k, acc.cqt, DecompositionOptions(seed=1))
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
