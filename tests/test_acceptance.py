"""Acceptance gate: one test per reproduction criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Instances are fixed-seed so every run is deterministic. Tolerances are stated
inline next to each assertion.
"""

import math
import time

import numpy as np
from dataclasses import replace

from moelearn import (Activation, ExperimentConfig, InputDistribution, MoeModel,
                      mom_gating, naive_ratio_mean, run_em, run_gradient_em,
                      sample_dataset, solve_cqt)
from moelearn.cqt import activation_moments, check_conditions, gauss_hermite
from moelearn.experiments import run_trial
from moelearn.gating_em import em_curvature_constants, random_gating_init, row_metric
from moelearn.model import make_rng
from moelearn.moments import MomentAccumulator, accumulate, finalize, raw_third_moment

from conftest import make_model, orthogonal_gating, unit_rows


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. population-tensor oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_population_tensor_oracle():
    t0 = time.time()
    d, k, sigma, n = 6, 2, 0.1, 1_000_000
    rng = np.random.default_rng(500)
    a = unit_rows(rng, k, d)
    w = rng.standard_normal(d)
    q, _ = np.linalg.qr(a.T)
    w -= q @ (q.T @ w)
    w /= np.linalg.norm(w)
    model = MoeModel(a=a, w=w[None, :], sigma=sigma, activation=Activation.linear())
    dist = InputDistribution.standard_gaussian(d)
    data = sample_dataset(model, dist, n, seed=1000)
    acc = MomentAccumulator(d, solve_cqt(Activation.linear(), sigma), dist)
    accumulate(acc, data)
    _, t3 = finalize(acc)
    # E[p_1] = E[sigmoid(|w| Z)] by quadrature (equals 1/2 by symmetry here)
    z, wq = gauss_hermite(80)
    p1 = float(np.sum(wq / (1.0 + np.exp(-np.linalg.norm(model.w[0]) * z))))
    pop = 6 * (p1 * np.einsum("a,b,c->abc", a[0], a[0], a[0])
               + (1 - p1) * np.einsum("a,b,c->abc", a[1], a[1], a[1]))
    err = float(np.abs(t3.to_dense() - pop).max())
    elapsed = time.time() - t0
    ok = err <= 0.02 and elapsed < 60.0
    assert _report("criterion 1", ok,
                   f"max entry error {err:.4f} (tol 0.02), {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 2. fit table, Gaussian inputs (orthogonal and non-orthogonal draws)
# ---------------------------------------------------------------------------

def test_criterion_2_table2_reproduction():
    t0 = time.time()
    means = {}
    for label, orth in (("orthogonal", True), ("non-orthogonal", False)):
        cfg = ExperimentConfig(experiment="accept-2", k=2, d=10, sigma=0.1,
                               n=2000, trials=10, seed=20, orthogonal=orth)
        results = [run_trial(cfg, t) for t in range(cfg.trials)]
        means[label] = (float(np.mean([r["regressor_fit"] for r in results])),
                        float(np.mean([r["gating_fit"] for r in results])))
    elapsed = time.time() - t0
    (rf_o, gf_o), (rf_n, _) = means["orthogonal"], means["non-orthogonal"]
    ok = rf_o >= 0.88 and gf_o >= 0.92 and rf_n >= 0.82 and elapsed < 120.0
    assert _report("criterion 2", ok,
                   f"orthogonal fit {rf_o:.3f}/{gf_o:.3f} (need 0.88/0.92), "
                   f"non-orthogonal regressor fit {rf_n:.3f} (need 0.82), "
                   f"{elapsed:.0f}s (limit 120s)")


# ---------------------------------------------------------------------------
# 3. fit table, Gaussian-mixture inputs
# ---------------------------------------------------------------------------

def test_criterion_3_table1_reproduction():
    t0 = time.time()
    worst_rf, worst_gf = 1.0, 1.0
    details = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        cfg = ExperimentConfig(experiment="accept-3", k=2, d=10, sigma=0.1,
                               n=2000, trials=10, seed=30, orthogonal=False,
                               dist={"kind": "gmm", "p": p})
        results = [run_trial(cfg, t) for t in range(cfg.trials)]
        rf = float(np.mean([r["regressor_fit"] for r in results]))
        gf = float(np.mean([r["gating_fit"] for r in results]))
        worst_rf, worst_gf = min(worst_rf, rf), min(worst_gf, gf)
        details.append(f"p={p}: {rf:.3f}/{gf:.3f}")
    elapsed = time.time() - t0
    ok = worst_rf >= 0.85 and worst_gf >= 0.85 and elapsed < 300.0
    assert _report("criterion 3", ok,
                   f"worst mean fits {worst_rf:.3f}/{worst_gf:.3f} (need 0.85), "
                   f"{'; '.join(details)}, {elapsed:.0f}s (limit 300s)")


# ---------------------------------------------------------------------------
# 4. joint-EM comparison
# ---------------------------------------------------------------------------

def _step_ratios(steps: list) -> list:
    """step_t / step_{t-1} over a run's outer-EM step norms."""
    return [b / a for a, b in zip(steps, steps[1:])]


def _first_step_below(steps: list, tol: float = 1e-4):
    return next((i + 1 for i, s in enumerate(steps) if s < tol), None)


def _span(values: list) -> str:
    found = [v for v in values if v is not None]
    return f"{min(found)}-{max(found)}" if found else "never"


def test_criterion_4_joint_em_comparison():
    # The abstract's claim: the gating EM run with the experts fixed,
    # "unlike the joint EM algorithm, converges to the true parameters".
    #
    # The joint-EM baseline gets the model's gating radius R (fit_pipeline
    # passes `radius`), while the spectral gating EM gets 2R so that any
    # expert-order gauge fits. With R, a joint-EM gating row ends on the R
    # ball in all 10 k=3 trials; with 2R its median E(A, W) falls from 0.416
    # to 0.261 and clause (b)'s joint counts are still 7 (k=3) and 10 (k=4).
    # The radius is left as it is: widening it would change the joint-EM
    # outputs the benchmark's reference files pin.
    t0 = time.time()
    contracting, broken, worst_ratio, readings = {}, {}, 0.0, []
    for k in (3, 4):
        spec_cfg = ExperimentConfig(experiment="accept-4", k=k, d=10, sigma=0.5,
                                    n=8000, trials=10, seed=40 + k,
                                    orthogonal=True, algo="spectral+em")
        joint_cfg = replace(spec_cfg, algo="joint-em")
        spec = [run_trial(spec_cfg, t) for t in range(10)]
        joint = [run_trial(joint_cfg, t) for t in range(10)]
        spec_ratios = [_step_ratios(r["step_norms"]) for r in spec]
        worst_ratio = max([worst_ratio] + [max(q, default=0.0) for q in spec_ratios])
        # (a) contraction: a step ratio below 1 at every outer step is what
        # contracting towards a fixed point means, and `converged` is the run
        # meeting its eps stopping rule within em_max_iters
        contracting[k] = sum(r["converged"] and all(q < 1.0 for q in qs)
                             for r, qs in zip(spec, spec_ratios))
        # (b) "unlike the joint EM algorithm": joint EM has a step that is not
        # shorter than the one before it in more trials than spectral+EM does
        broken[k] = tuple(sum(any(q >= 1.0 for q in _step_ratios(r["step_norms"]))
                              for r in runs) for runs in (joint, spec))
        # Paper-figure readings, reported but not asserted (see below).
        e_ratio = (float(np.median([r["param_error"] for r in spec]))
                   / float(np.median([r["param_error"] for r in joint])))
        e_at_10 = [float(np.median([r["error_curve"][min(9, len(r["error_curve"]) - 1)]
                                    for r in runs])) for runs in (spec, joint)]
        first = [_span([_first_step_below(r["step_norms"]) for r in runs])
                 for runs in (spec, joint)]
        readings.append(f"k={k}: median-E ratio spectral/joint {e_ratio:.2f}, first "
                        f"step < 1e-4 at iteration {first[0]} vs {first[1]}, median E "
                        f"at iteration 10 {e_at_10[0]:.2f} vs {e_at_10[1]:.2f}")
    elapsed = time.time() - t0
    # 8 of 10 trials per k leaves room for one or two unlucky draws
    ok = (all(c >= 8 for c in contracting.values())
          and all(j > s for j, s in broken.values())
          and elapsed < 600.0)
    assert _report(
        "criterion 4", ok,
        f"spectral+EM steps contract and meet eps in {contracting[3]}/10 (k=3) and "
        f"{contracting[4]}/10 (k=4) trials (need >= 8; largest step ratio "
        f"{worst_ratio:.2f}); trials with a step not shorter than the one before, "
        f"joint vs spectral: {broken[3][0]} vs {broken[3][1]} (k=3), {broken[4][0]} "
        f"vs {broken[4][1]} (k=4) (need joint > spectral); {elapsed:.0f}s (limit "
        f"600s). Reported, not asserted: {'; '.join(readings)}. A 2x median-E "
        "separation and a 1e-4 step within 10 iterations are readings of a paper "
        "figure, not claims of the method: at n=8000 the spectral regressor "
        "error alone is tensor sampling noise that shrinks as n^-1/2, and at "
        "sigma=0.5 each gating-EM step is 0.59-0.86 times the one before it.")


# ---------------------------------------------------------------------------
# 5. gating-EM convergence signatures
# ---------------------------------------------------------------------------

def test_criterion_5_em_convergence_signatures():
    model = make_model(42, k=2, d=10, sigma=0.05)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 100_000, seed=5)

    one = run_em(data.x, data.y, model.a, 0.05, model.activation, radius=1.0,
                 w0=model.w, max_iters=1)
    move = one.trace[0].step_norm
    fixed_ok = move < 0.05

    ratios, monotone_ok = [], True
    for seed in range(10):
        w0 = random_gating_init(2, 10, 1.0, make_rng(seed))
        st = run_em(data.x, data.y, model.a, 0.05, model.activation, radius=1.0,
                    w0=w0, max_iters=6, eps=0.0)
        dists = [row_metric(w, model.w) for w in [w0] + [w for _, w in st.iterates]]
        floor = dists[-1]
        # contraction is measured before the iterate reaches the additive
        # sampling-error floor the bound allows
        pre = [dists[i + 1] / dists[i] for i in range(min(5, len(dists) - 1))
               if dists[i] > 2 * floor]
        ratios.extend(pre)
        lls = st.loglik_sequence()
        monotone_ok &= all(lls[i + 1] >= lls[i] - 1e-9 for i in range(len(lls) - 1))
    med = float(np.median(ratios))
    ok = fixed_ok and med < 0.7 and monotone_ok
    assert _report("criterion 5", ok,
                   f"one-step move from truth {move:.4f} (tol 0.05); median "
                   f"pre-plateau contraction ratio {med:.3f} over {len(ratios)} "
                   f"steps (need < 0.7); log-likelihood monotone: {monotone_ok}")


# ---------------------------------------------------------------------------
# 6. label-transform certification
# ---------------------------------------------------------------------------

def test_criterion_6_cqt_certification():
    cond_ok = True
    for name in ("linear", "sigmoid", "relu"):
        for sigma in (0.0, 0.1, 0.5):
            c = solve_cqt(Activation.by_name(name), sigma)
            rep = check_conditions(c)
            cond_ok &= (abs(rep.s3_d1) <= 1e-8 and abs(rep.s3_d2) <= 1e-8
                        and abs(rep.s2_d1) <= 1e-8)
    m = activation_moments(Activation.sigmoid())
    entries_ok = (abs(2 * m["gg1"] - 0.2066) <= 5e-4
                  and abs(2 * m["pair"] - 0.0624) <= 5e-4)
    g_lin = solve_cqt(Activation.linear(), 0.1).gamma
    g_sig = solve_cqt(Activation.sigmoid(), 0.1).gamma
    g_rel = solve_cqt(Activation.relu(), 0.1).gamma
    gamma_ok = (abs(g_lin) <= 1e-8 and abs(g_sig + 1.0) <= 1e-8
                and abs(g_rel + 2.0 * math.sqrt(2.0 / math.pi)) <= 1e-8)
    ok = cond_ok and entries_ok and gamma_ok
    assert _report("criterion 6", ok,
                   f"conditions at 1e-8 for 3 activations x 3 noise levels: {cond_ok}; "
                   f"printed matrix entries within 5e-4: {entries_ok}; "
                   f"gamma identities (0, -1, -2 sqrt(2/pi)) at 1e-8: {gamma_ok}")


# ---------------------------------------------------------------------------
# 7. curvature constants and gradient EM
# ---------------------------------------------------------------------------

def test_criterion_7_constants_and_gradient_em():
    lam, mu = em_curvature_constants()
    const_ok = abs(lam - 0.1442) <= 0.002 and abs(mu - 0.25) <= 1e-3

    model = make_model(42, k=2, d=10, sigma=0.05)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 100_000, seed=5)
    eps = 1e-4
    alpha = 2.0 / (mu + lam)
    em = run_em(data.x, data.y, model.a, 0.05, model.activation, radius=1.0,
                seed=3, eps=eps)
    gem = run_gradient_em(data.x, data.y, model.a, 0.05, model.activation,
                          radius=1.0, seed=3, eps=eps, step_alpha=alpha,
                          max_iters=500)
    gap = row_metric(em.w, gem.w)
    ok = const_ok and gem.converged and gap <= 2 * eps
    assert _report("criterion 7", ok,
                   f"lambda {lam:.4f} (0.1442 +/- 0.002), mu {mu:.4f} (0.25 +/- 1e-3); "
                   f"gradient EM (alpha {alpha:.3f}) limit within {gap:.2e} of EM "
                   f"(tol {2 * eps:.0e})")


# ---------------------------------------------------------------------------
# 8. method-of-moments gating
# ---------------------------------------------------------------------------

def test_criterion_8_mom_gating():
    t0 = time.time()
    hits = 0
    for seed in range(10):
        model = make_model(7000 + seed, k=2, d=10, sigma=0.1)
        dist = InputDistribution.standard_gaussian(10)
        data = sample_dataset(model, dist, 100_000, seed=8000 + seed)
        res = mom_gating(data.x, data.y, model.a[0], model.a[1])
        hits += abs(res.w_hat @ model.w[0]) >= 0.95
    model = make_model(7100, k=2, d=10, sigma=0.1)
    dist = InputDistribution.standard_gaussian(10)
    data = sample_dataset(model, dist, 100_000, seed=8100)
    tail = naive_ratio_mean(data.x, data.y, model.a[0], model.a[1]).tail_ratio

    # non-sqrt(n) scaling: quadrupling n leaves the robust spread nearly flat
    def naive_spread(n):
        vals = []
        for seed in range(50):
            d2 = sample_dataset(model, dist, n, seed=8200 + seed)
            vals.append(naive_ratio_mean(d2.x, d2.y, model.a[0], model.a[1]).mean[0])
        v = np.asarray(vals)
        return float(np.median(np.abs(v - np.median(v))))

    s1, s4 = naive_spread(5000), naive_spread(20000)
    scaling_flat = s4 > 0.6 * s1
    elapsed = time.time() - t0
    ok = hits >= 9 and tail > 5.0 and scaling_flat
    assert _report("criterion 8", ok,
                   f"|<w_hat, w*>| >= 0.95 in {hits}/10 seeds (need 9); naive tail "
                   f"ratio {tail:.1f} (need > 5); spread at 4x samples {s4:.3f} vs "
                   f"{s1:.3f} (no sqrt-n shrink): {scaling_flat}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. negative control: untransformed tensor keeps gating cross terms
# ---------------------------------------------------------------------------

def test_criterion_9_negative_control():
    # gating active (w* != 0, softmax/sigmoid gate) with the linear experts of
    # the cross-moment failure construction; three experts so the softmax
    # curvature terms survive, gating rows orthogonal to the regressor span so
    # the transformed tensor is exactly clean
    t0 = time.time()
    k, d, sigma, n = 3, 4, 0.1, 100_000
    ratios_raw, ratios_cqt = [], []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(90 + seed)
        a = unit_rows(rng, k, d)
        w = orthogonal_gating(rng, a, k - 1)
        model = MoeModel(a=a, w=w, sigma=sigma, activation=Activation.linear())
        dist = InputDistribution.standard_gaussian(d)
        data = sample_dataset(model, dist, n, seed=190 + seed)
        raw = raw_third_moment(data, dist)
        acc = MomentAccumulator(d, solve_cqt(Activation.linear(), sigma), dist)
        accumulate(acc, data)
        _, t3 = finalize(acc)
        w1 = w[0]
        ratios_raw.append(np.linalg.norm(raw.collapse_matrix(w1)) / raw.frobenius())
        ratios_cqt.append(np.linalg.norm(t3.collapse_matrix(w1)) / t3.frobenius())
    r_raw = float(np.median(ratios_raw))
    r_cqt = float(np.median(ratios_cqt))
    factor = r_raw / r_cqt
    elapsed = time.time() - t0
    ok = factor > 10.0
    assert _report("criterion 9", ok,
                   f"raw contraction ratio {r_raw:.3f}, transformed {r_cqt:.4f}, "
                   f"factor {factor:.1f} (need > 10); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# real-data harness (structural acceptance)
# ---------------------------------------------------------------------------

def test_realdata_structural(tmp_path):
    from pathlib import Path
    from moelearn import run_suite

    concrete = Path("data/concrete.csv")
    if concrete.exists():
        import csv as _csv
        with concrete.open() as fh:
            header = next(_csv.reader(fh))
        cfg = ExperimentConfig(experiment="realdata", k=3, sigma=0.1, seed=0,
                               csv_path=str(concrete), feature_cols=header[:-1],
                               target_col=header[-1])
        source = "concrete.csv"
    else:
        rng = np.random.default_rng(12)
        n = 1030
        x = rng.standard_normal((n, 4)) * [3.0, 1.0, 0.5, 2.0] + [1.0, 0.0, -1.0, 2.0]
        gate = 1 / (1 + np.exp(-(x - x.mean(0)) @ np.array([0.0, 0.0, 1.0, 0.0])))
        z = rng.random(n) < gate
        y = np.where(z, x @ [1.0, -0.5, 0.0, 0.2], x @ [-0.3, 0.8, 0.1, -0.4])
        y += 0.05 * rng.standard_normal(n)
        path = tmp_path / "standin.csv"
        with path.open("w") as fh:
            fh.write("c1,c2,c3,c4,target\n")
            for i in range(n):
                fh.write(",".join(f"{v:.8f}" for v in x[i]) + f",{y[i]:.8f}\n")
        cfg = ExperimentConfig(experiment="realdata", k=2, sigma=0.1, seed=2,
                               csv_path=str(path),
                               feature_cols=["c1", "c2", "c3", "c4"],
                               target_col="target")
        source = "synthetic stand-in (place data/concrete.csv to use the UCI set)"
    manifest = run_suite("realdata", cfg, tmp_path / "rd")
    rows = (tmp_path / "rd" / "realdata.csv").read_text().strip().splitlines()[1:]
    table = {line.split(",")[0]: line.split(",")[1] for line in rows}
    spectral = float(table["spectral+em"])
    variance = float(table["test_variance"])
    ok = not manifest["failures"] and spectral <= variance
    assert _report("realdata", ok,
                   f"end-to-end on {source}: spectral error {spectral:.4f} <= "
                   f"test variance {variance:.4f}")
