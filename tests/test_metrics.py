import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moelearn import gating_fit, regressor_fit
from moelearn import metrics
from moelearn.errors import ConfigError
from moelearn.metrics import (FitReport, config_hash, gating_fit_rows,
                              param_error_min_gauge, write_trace_csv)

from conftest import unit_rows


def test_regressor_fit_identity_and_swaps():
    rng = np.random.default_rng(0)
    a = unit_rows(rng, 3, 5)
    fit, perm, exact = regressor_fit(a, a)
    assert fit == pytest.approx(1.0) and exact
    assert perm == (0, 1, 2)
    shuffled = a[[1, 0, 2]].copy()
    shuffled[2] *= -1
    fit, perm, _ = regressor_fit(shuffled, a)
    assert fit == pytest.approx(1.0)
    assert perm == (1, 0, 2)


def test_regressor_fit_hand_example():
    est = np.eye(2)
    truth = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    fit, _, _ = regressor_fit(est, truth)
    assert fit == pytest.approx(1 / np.sqrt(2))


def test_regressor_fit_mismatch():
    with pytest.raises(ConfigError):
        regressor_fit(np.eye(3), np.eye(2))


def test_hungarian_fallbacks_recover_a_row_permutation():
    """Above BRUTE_FORCE_LIMIT both metrics match by linear_sum_assignment."""
    rng = np.random.default_rng(9)
    k, d = 9, 12
    a = unit_rows(rng, k, d)
    w = np.vstack([unit_rows(rng, k - 1, d), np.zeros((1, d))])
    perm = rng.permutation(k)
    fit, pi, exact = regressor_fit(a[perm], a)
    assert fit == pytest.approx(1.0) and not exact
    assert pi == tuple(np.argsort(perm))    # est row pi[i] is truth row i
    err, pi = param_error_min_gauge(a[perm], w[perm], a, w)
    assert err == 0.0
    assert pi == tuple(perm)                # est row r is truth row pi[r]


def test_hungarian_fallbacks_agree_with_brute_force(monkeypatch):
    rng = np.random.default_rng(4)
    k, d = 4, 6
    a = unit_rows(rng, k, d)
    w = np.vstack([unit_rows(rng, k - 1, d), np.zeros((1, d))])
    perm = rng.permutation(k)
    a_est = a[perm] + 0.05 * rng.standard_normal((k, d))
    w_est = w[perm] + 0.05 * rng.standard_normal((k, d))
    brute_fit = regressor_fit(a_est, a)
    brute_err = param_error_min_gauge(a_est, w_est, a, w)
    monkeypatch.setattr(metrics, "BRUTE_FORCE_LIMIT", 3)
    fit, pi, exact = regressor_fit(a_est, a)
    assert not exact and brute_fit[2]
    assert (fit, pi) == brute_fit[:2]
    assert param_error_min_gauge(a_est, w_est, a, w) == brute_err


def test_gating_fit_examples():
    w = np.array([0.6, 0.8])
    assert gating_fit(w, w) == pytest.approx(1.0)
    assert gating_fit(np.array([0.8, -0.6]), w) == pytest.approx(0.0, abs=1e-12)
    assert gating_fit(-w, w) == pytest.approx(1.0)
    assert gating_fit(3.0 * w, w) == pytest.approx(1.0)   # normalized internally
    assert np.isnan(gating_fit(w, np.zeros(2)))


def test_param_error_exact_and_signflip():
    rng = np.random.default_rng(1)
    a = unit_rows(rng, 3, 4)
    w = np.vstack([unit_rows(rng, 2, 4), np.zeros((1, 4))])
    err, perm = param_error_min_gauge(a, w, a, w)
    assert err == pytest.approx(0.0, abs=1e-12)
    flipped = a.copy()
    flipped[0] *= -1
    a_orth = np.eye(3)
    err, _ = param_error_min_gauge(-a_orth[:1].repeat(3, 0) * 0 + np.vstack([-a_orth[0], a_orth[1], a_orth[2]]),
                         np.zeros((3, 3)), a_orth, np.zeros((3, 3)))
    assert err == pytest.approx(2.0)   # ||a - (-a)|| = 2 for a unit row


def test_param_error_couples_permutation():
    # A prefers the swap, W prefers identity; the shared permutation must
    # minimize the sum
    a_true = np.eye(2)
    a_est = a_true[[1, 0]]
    w_true = np.array([[1.0, 0.0], [0.0, 0.0]])
    w_est = w_true.copy()
    err, perm = param_error_min_gauge(a_est, w_est, a_true, w_true)
    swap_cost = np.linalg.norm(w_est - w_true[[1, 0]], "fro")
    id_cost = np.linalg.norm(a_est - a_true, "fro")
    assert err == pytest.approx(min(swap_cost, id_cost))


def test_param_error_pads_gating():
    a = np.eye(3)
    w = np.zeros((2, 3))
    err, _ = param_error_min_gauge(a, w, a, np.zeros((3, 3)))
    assert err == 0.0
    with pytest.raises(ConfigError):
        param_error_min_gauge(a, np.zeros((4, 3)), a, w)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_metric_invariances(k, seed):
    rng = np.random.default_rng(seed)
    d = k + 2
    truth = unit_rows(rng, k, d)
    est = truth + 0.1 * rng.standard_normal((k, d))
    perm = rng.permutation(k)
    signs = rng.choice([-1.0, 1.0], size=(k, 1))
    fit_base, _, _ = regressor_fit(est, truth)
    fit_perm, _, _ = regressor_fit(est[perm] * signs, truth)
    assert fit_perm == pytest.approx(fit_base, abs=1e-10)
    # param_error invariant under permuting estimate rows (not signs)
    w_est = rng.standard_normal((k, d))
    e_base, _ = param_error_min_gauge(est, w_est, truth, rng.standard_normal((k, d)) * 0)
    e_perm, _ = param_error_min_gauge(est[perm], w_est[perm], truth, np.zeros((k, d)))
    assert e_perm == pytest.approx(e_base, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.sampled_from([0.1, 1.0, 4.0]),
       st.integers(min_value=0, max_value=10**6))
def test_param_error_min_gauge_is_softmax_gauge_invariant(k, scale, seed):
    """Adding one vector to every row of the padded estimate leaves the
    softmax, and so the parameter error and the gating fit, unchanged. The
    truth has the model's k - 1 rows; both metrics pad it."""
    rng = np.random.default_rng(seed)
    d = k + 2
    a_true = unit_rows(rng, k, d)
    w_true = rng.standard_normal((k - 1, d))
    a_est = a_true + 0.1 * rng.standard_normal((k, d))
    w_est = rng.standard_normal((k, d))
    shift = scale * rng.standard_normal(d)
    base, _ = param_error_min_gauge(a_est, w_est, a_true, w_true)
    shifted, _ = param_error_min_gauge(a_est, w_est + shift, a_true, w_true)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    _, perm, _ = regressor_fit(a_est, a_true)
    assert (gating_fit_rows(w_est + shift, w_true, perm)
            == pytest.approx(gating_fit_rows(w_est, w_true, perm), rel=1e-9, abs=1e-12))


def _ref_param_error_min_gauge(a_est, w_est, a_true, w_true):
    """The minimum gauge error as k full permutation searches, one per gauge
    representative, each scoring both Frobenius terms of every permutation;
    the first gauge, then the first permutation, that attains it."""
    k, d = a_est.shape
    w = np.vstack([w_est, np.zeros((1, d))]) if len(w_est) == k - 1 else w_est
    w_true = np.vstack([w_true, np.zeros((1, d))]) if len(w_true) == k - 1 else w_true
    best, best_pi = float("inf"), None
    for j in range(k):
        for pi in itertools.permutations(range(k)):
            err = (np.linalg.norm(a_est - a_true[list(pi)], "fro")
                   + np.linalg.norm((w - w[j]) - w_true[list(pi)], "fro"))
            if err < best:
                best, best_pi = err, pi
    return float(best), best_pi


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.booleans(), st.booleans(),
       st.sampled_from(["noisy", "truth", "zero_gating"]),
       st.integers(min_value=0, max_value=10**6))
def test_param_error_min_gauge_matches_every_gauge_search(k, est_padded, truth_padded,
                                                          kind, seed):
    """Bit for bit, the permutation included, with ties: an estimate that is
    the permuted truth, or whose gating rows are all zero (every gauge the
    same)."""
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 7)
    a_true = unit_rows(rng, k, d)
    w_true = np.vstack([rng.standard_normal((k - 1, d)), np.zeros((1, d))])
    perm = rng.permutation(k)
    a_est, w_est = a_true[perm], w_true[perm]
    if kind == "noisy":
        a_est = a_est + 0.3 * rng.standard_normal((k, d))
        w_est = rng.standard_normal((k, d))
    elif kind == "zero_gating":
        w_est = np.zeros((k, d))
    if not est_padded:
        w_est = w_est[:-1] - w_est[-1]
    w_truth = w_true if truth_padded else w_true[:-1]
    got = param_error_min_gauge(a_est, w_est, a_true, w_truth)
    assert got == _ref_param_error_min_gauge(a_est, w_est, a_true, w_truth)
    assert type(got[0]) is float


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                  elements=st.floats(allow_nan=False, allow_subnormal=True)),
       st.sampled_from(["C", "F", "strided"]))
def test_frobenius_has_np_linalg_norm_bits(m, layout):
    """E(A, W)'s norm equals np.linalg.norm(m, "fro") bit for bit, in any
    memory order, over the whole float range (overflow to inf included)."""
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout == "strided":
        m = np.repeat(m, 2, axis=0)[::2]
    with np.errstate(over="ignore"):
        assert metrics._frobenius(m).hex() == float(np.linalg.norm(m, "fro")).hex()


def test_gating_fit_rows_matched_permutation():
    rng = np.random.default_rng(7)
    w_true = np.vstack([unit_rows(rng, 2, 5), np.zeros((1, 5))])
    perm = (2, 0, 1)   # est row perm[i] pairs truth row i
    w_est = np.zeros((3, 5))
    for i in range(3):
        w_est[perm[i]] = w_true[i]
    # re-gauge the estimate arbitrarily; the metric must undo it
    w_est = w_est - w_est[1]
    fit = gating_fit_rows(w_est, w_true, perm)
    assert fit == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["random", "zero truth", "equal rows"]))
def test_gating_fit_rows_at_two_experts_is_gating_fit_of_the_difference(d, seed, case):
    """At k = 2 the one row gating_fit_rows scores is +-(w_0 - w_1). IEEE
    negation is exact, so under either permutation it returns the bits of
    gating_fit(w_0 - w_1, truth), and NaN for a zero truth."""
    rng = np.random.default_rng(seed)
    w_est = rng.standard_normal((2, d)) * 10.0 ** rng.uniform(-3, 3, (2, d))
    if case == "equal rows":
        w_est[1] = w_est[0]
    truth = np.zeros(d) if case == "zero truth" else rng.standard_normal(d)
    want = gating_fit(w_est[0] - w_est[1], truth)
    for perm in ((0, 1), (1, 0)):
        got = gating_fit_rows(w_est, np.vstack([truth, np.zeros(d)]), perm)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.isnan(want) == (case == "zero truth")


def test_hungarian_permutation_is_plain_ints_and_serializes():
    """Above BRUTE_FORCE_LIMIT the matching comes from linear_sum_assignment;
    its numpy integers must not reach the report, whose JSON would fail."""
    rng = np.random.default_rng(9)
    k, d = 9, 20
    truth = unit_rows(rng, k, d)
    est = truth[::-1] + 0.01 * rng.standard_normal((k, d))
    _, perm, exact = regressor_fit(est, truth)
    assert not exact and perm == tuple(range(k - 1, -1, -1))
    _, perm_e = param_error_min_gauge(est, np.zeros((k - 1, d)), truth, np.zeros((k - 1, d)))
    assert all(type(p) is int for p in perm + perm_e)
    text = FitReport(config={"k": k}, matched_permutation=perm).to_json()
    assert json.loads(text)["matched_permutation"] == list(perm)


def test_fit_report_has_the_schema_one_keys():
    """Pins the schema: to_dict derives its keys from the dataclass fields,
    so a new field would otherwise change the report silently."""
    assert set(FitReport(config={}).to_dict()) == {
        "schema", "config", "config_hash", "regressor_fit", "gating_fit",
        "param_error", "matched_permutation", "permutation_exact", "cqt",
        "decomposition", "traces", "flags", "rng"}


def test_fit_report_roundtrip(tmp_path):
    report = FitReport(config={"k": 2, "seed": 1}, regressor_fit=0.95,
                       gating_fit=0.9, param_error=0.3,
                       matched_permutation=(1, 0))
    path = tmp_path / "report.json"
    report.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["config_hash"] == config_hash({"k": 2, "seed": 1})
    assert payload["matched_permutation"] == [1, 0]
    assert payload["rng"] == "philox4x64"


def test_trace_csv(tmp_path):
    from moelearn.gating_em import TraceRow
    trace = [TraceRow(1, 0.5, -1.2, -3.4)]
    tpath = tmp_path / "trace.csv"
    write_trace_csv(tpath, trace)
    tl = tpath.read_text().strip().splitlines()
    assert tl[0] == "iter,step_norm,q_value,loglik"
    assert tl[1] == "1,0.5,-1.2,-3.4"


def test_config_hash_deterministic_and_order_free():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
