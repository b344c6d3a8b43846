"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one `[PASS] criterion N` line on success (run with
`pytest tests/test_acceptance.py -v -s` to see them inline); a failing
criterion shows up as an ordinary pytest failure.
"""

import csv
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from _helpers import random_model, random_trace, unit
from shmm.cli import main
from shmm.data_io import RecordIndex, build_pools, evaluate_prediction, split_corpus
from shmm.emission import EmissionConfig, log_emission_matrix
from shmm.hmm_core import (
    KMeansInit,
    StopCriteria,
    baum_welch,
    forward_backward,
    relabel_states,
    score_next,
    viterbi,
)
from shmm.records import Trace, stack_records
from shmm.special_fns import bessel_ratio_a
from shmm.synth import planted_model, sample_corpus
from shmm.vmf import VmfParams, fit_vmf, sample_vmf, solve_concentration, vmf_log_norm_const

mp.mp.dps = 30


def _report(n: int, text: str) -> None:
    print(f"\n[PASS] criterion {n}: {text}")


def _mp_ratio(p, kappa):
    return mp.besseli(mp.mpf(p) / 2, kappa) / mp.besseli(mp.mpf(p) / 2 - 1, kappa)


def _problem_grid(n_problems=50, seed=20240812):
    """Randomized root-finding problems shared by criteria 2 and 3."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(n_problems):
        p = int(rng.integers(2, 201))
        kappa = float(10 ** rng.uniform(math.log10(0.5), 3.0))
        problems.append((p, kappa))
    return problems


def _bisect_root(p, r_bar, tol=1e-11):
    """Independent bisection oracle on the double-precision ratio."""
    lo, hi = 1e-12, 1.0
    while bessel_ratio_a(p, hi) < r_bar:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bessel_ratio_a(p, mid) < r_bar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def recovery_run():
    """The 5-state, p=10 synthetic corpus with a 100-iteration EM run."""
    model_true = planted_model(5, 10, seed=2024)
    corpus = sample_corpus(model_true, 500, 20, seed=2025)
    started = time.perf_counter()
    model, history = baum_welch(
        corpus,
        5,
        EmissionConfig.shmm(),
        init=KMeansInit(seed=0),
        stop=StopCriteria(rel_tol=0.0, max_iters=100),
    )
    elapsed = time.perf_counter() - started
    return model_true, corpus, model, history, elapsed


def test_criterion_1_newton_residual_via_cli(tmp_path):
    started = time.perf_counter()
    rc = main([
        "synth", "newton_convergence", "--p", "100", "--kappa", "100",
        "--n", "100000", "--seed", "7", "--output-dir", str(tmp_path),
    ])
    elapsed = time.perf_counter() - started
    assert rc == 0
    with open(tmp_path / "newton_convergence.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    residuals = [float(r[2]) for r in rows]  # row 0 is the initializer
    assert len(residuals) >= 2
    assert min(residuals[1:4]) < 1e-13, f"residuals after init: {residuals[1:4]}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, f"residual {min(residuals[1:4]):.2e} within 3 Newton iterations "
               f"(p=100, kappa=100, N=1e5; {elapsed:.2f}s)")


def test_criterion_2_quadratic_convergence_ratio():
    started = time.perf_counter()
    ratios = []
    for p, kappa_true in _problem_grid():
        r_bar = _mp_ratio(p, mp.mpf(kappa_true))
        trace = solve_concentration(r_bar, p, tol=mp.mpf("1e-25"), ratio_fn=_mp_ratio)
        assert not trace.used_fallback, f"safeguard engaged at p={p}, kappa={kappa_true}"
        root = trace.kappas[-1]
        errors = [k - root for k in trace.kappas]
        for e_n, e_n1 in zip(errors[:-1], errors[1:]):
            if 1e-8 < abs(e_n) < 1e-1:
                ratios.append(float(abs(e_n1) / e_n ** 2))
    elapsed = time.perf_counter() - started
    assert ratios, "no iteration errors fell inside the measurement window"
    assert all(0.0 < c < 1.0 for c in ratios), f"worst ratio {max(ratios)}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(2, f"{len(ratios)} windowed iteration pairs, ratio range "
               f"[{min(ratios):.3g}, {max(ratios):.3g}] in (0,1) ({elapsed:.2f}s)")


def test_criterion_3_newton_agrees_with_bisection():
    worst = 0.0
    for p, kappa_true in _problem_grid():
        r_bar = bessel_ratio_a(p, kappa_true)
        trace = solve_concentration(r_bar, p)
        oracle = _bisect_root(p, r_bar)
        worst = max(worst, abs(trace.kappas[-1] - oracle))
    assert worst < 1e-10, f"worst |newton - bisection| = {worst:.3e}"
    _report(3, f"50-problem grid, worst |newton - bisection| = {worst:.2e} < 1e-10")


def test_criterion_4_closed_form_oracles():
    kappas = (0.01, 0.1, 1.0, 10.0, 100.0, 1e4)
    worst_a = worst_c = 0.0
    for kappa in kappas:
        a_closed = float(mp.coth(kappa) - 1 / mp.mpf(kappa))
        a_impl = bessel_ratio_a(3, kappa)
        worst_a = max(worst_a, abs(a_impl / a_closed - 1.0))

        log_c_closed = mp.log(kappa) - mp.log(4 * mp.pi) - mp.log(mp.sinh(mp.mpf(kappa)))
        log_c_impl = vmf_log_norm_const(3, kappa)
        if kappa <= 100.0:
            # C_3 itself is representable: strict relative comparison
            rel = abs(math.exp(log_c_impl) / float(mp.exp(log_c_closed)) - 1.0)
        else:
            # C_3(1e4) ~ e^-9990 underflows doubles; compare log normalizers
            # at the same 1e-12 relative precision
            rel = abs(log_c_impl - float(log_c_closed)) / abs(float(log_c_closed))
        worst_c = max(worst_c, rel)
    assert worst_a < 1e-12, f"A_3 worst relative error {worst_a:.3e}"
    assert worst_c < 1e-12, f"C_3 worst relative error {worst_c:.3e}"
    _report(4, f"A_3 within {worst_a:.2e}, C_3 within {worst_c:.2e} (rel < 1e-12)")


def test_criterion_5_sampler_fidelity():
    n_total, n_chunks = 1_000_000, 10
    lines = []
    for pair_idx, (p, kappa) in enumerate([(3, 1.0), (10, 20.0), (30, 100.0), (100, 100.0)]):
        mu = unit(np.arange(1, p + 1))
        params = VmfParams(mu=mu, kappa=kappa, p=p)
        s1 = s2 = 0.0
        chunk = n_total // n_chunks
        for i in range(n_chunks):
            t = sample_vmf(params, chunk, seed=9000 + 97 * pair_idx + i) @ mu
            s1 += float(t.sum())
            s2 += float((t * t).sum())
        mean = s1 / n_total
        se = math.sqrt((s2 / n_total - mean * mean) / n_total)
        expected = bessel_ratio_a(p, kappa)
        assert abs(mean - expected) < 3.0 * se, (
            f"(p={p}, kappa={kappa}): mean {mean:.6f} vs A_p {expected:.6f}, se {se:.2e}"
        )

        fitted = fit_vmf(sample_vmf(params, 100_000, seed=9500 + pair_idx))
        rel = abs(fitted.kappa - kappa) / kappa
        assert rel < 0.05, f"(p={p}, kappa={kappa}): round-trip error {rel:.3%}"
        lines.append(f"(p={p},k={kappa:g}): |mean-A_p|={abs(mean-expected):.1e}<3se, "
                     f"kappa err {rel:.2%}")
    _report(5, "; ".join(lines))


def test_criterion_6_em_monotonicity(recovery_run):
    _, _, _, history, elapsed = recovery_run
    logliks = [h.loglik for h in history]
    assert len(logliks) == 100
    worst_drop = 0.0
    for prev, curr in zip(logliks, logliks[1:]):
        drop = prev - curr
        worst_drop = max(worst_drop, drop)
        assert curr >= prev - 1e-8 * abs(prev), f"loglik fell {prev} -> {curr}"
    assert elapsed < 120.0, f"100 iterations took {elapsed:.1f}s"
    _report(6, f"100 EM iterations monotone (worst drop {worst_drop:.3g} nats, "
               f"{elapsed:.1f}s, loglik {logliks[0]:.0f} -> {logliks[-1]:.0f})")


def test_criterion_7_planted_model_recovery(recovery_run):
    model_true, _, model, _, _ = recovery_run
    k = model_true.n_states
    cos = np.array(
        [[float(s.text.mu @ t.text.mu) for t in model_true.states] for s in model.states]
    )
    row, col = linear_sum_assignment(-cos)
    perm = np.empty(k, dtype=int)
    perm[col] = row
    aligned = relabel_states(model, perm)

    tv = 0.5 * np.abs(aligned.trans - model_true.trans).sum(axis=1)
    kappa_rel = np.array(
        [
            abs(s.text.kappa - t.text.kappa) / t.text.kappa
            for s, t in zip(aligned.states, model_true.states)
        ]
    )
    mu_dot = np.array(
        [float(s.text.mu @ t.text.mu) for s, t in zip(aligned.states, model_true.states)]
    )
    assert tv.max() <= 0.05, f"transition rows TV {tv}"
    assert kappa_rel.max() <= 0.10, f"kappa errors {kappa_rel}"
    assert mu_dot.min() > 0.99, f"mean-direction cosines {mu_dot}"
    _report(7, f"recovery: max row TV {tv.max():.4f} <= 0.05, max kappa error "
               f"{kappa_rel.max():.3%} <= 10%, min mu cosine {mu_dot.min():.5f} > 0.99")


def _enumerate_logprobs(model, trace):
    """All-path joint log-probabilities by explicit enumeration."""
    k, r = model.n_states, len(trace)
    log_b = log_emission_matrix(model.states, model.config, *stack_records(trace))
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    paths = np.array(list(itertools.product(range(k), repeat=r)), dtype=int)
    lp = log_pi[paths[:, 0]] + log_b[0, paths[:, 0]]
    for t in range(1, r):
        lp = lp + log_a[paths[:, t - 1], paths[:, t]] + log_b[t, paths[:, t]]
    return paths, lp


def test_criterion_8_exhaustive_path_oracle():
    from scipy.special import logsumexp

    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        r = int(rng.integers(2, 7))
        model = random_model(k, 3, rng)
        trace = random_trace(r, 3, rng)

        paths, lp = _enumerate_logprobs(model, trace)
        _, loglik = forward_backward(model, trace)
        assert loglik == pytest.approx(float(logsumexp(lp)), abs=1e-9)

        vit = viterbi(model, trace)
        best = float(lp.max())
        vit_lp = lp[int(np.flatnonzero((paths == vit).all(axis=1))[0])]
        assert float(vit_lp) == pytest.approx(best, abs=1e-9)

        prefix = Trace(trace.records[: r - 1]) if r > 2 else trace
        cands = [random_trace(1, 3, rng)[0] for _ in range(3)]
        for c in cands:
            c.t_abs = 1e12  # candidates extend the prefix in time
        ranked = dict(score_next(model, prefix, cands, k_top=3))
        for idx, cand in enumerate(cands):
            _, lp_ext = _enumerate_logprobs(model, Trace([*prefix.records, cand]))
            assert ranked[idx] == pytest.approx(float(logsumexp(lp_ext)), abs=1e-9)
        checked += 1
    _report(8, f"{checked} random instances (K<=4, R<=6): forward-backward, "
               f"viterbi and score_next all match enumeration within 1e-9")


def _directional_setup(kappa_text, seed=100):
    """Corpus whose states overlap in space/time and differ only in text."""
    k, p = 4, 10
    model_true = planted_model(
        k, p, seed=seed,
        kappas=[kappa_text] * k,
        loc_centers=np.zeros((k, 2)),
        loc_cov=np.diag([6.4e-5, 6.4e-5]),
        time_means=[43200.0] * k,
        time_sigma=9000.0,
        self_prob=0.55,
    )
    corpus = sample_corpus(model_true, 6700, 6, seed=seed + 1)
    train, test = split_corpus(corpus, 0.7, seed=seed + 2)
    test = test[:2000]
    stop = StopCriteria(rel_tol=1e-7, max_iters=80)
    accuracies = {}
    for preset in ("shmm", "hmm"):
        model, _ = baum_welch(
            train, k, EmissionConfig.preset(preset), init=KMeansInit(seed=0), stop=stop
        )
        index = RecordIndex.from_traces(test)
        pools = build_pools(test, index, dist_thresh=3500.0, time_thresh=300.0,
                            pool_size=10, seed=7)
        accuracies[preset] = evaluate_prediction(model, test, pools, [1])[1]
    return accuracies


def test_criterion_9_directional_prediction_check():
    with_text = _directional_setup(kappa_text=50.0)
    assert with_text["shmm"] > with_text["hmm"], (
        f"SHMM acc@1 {with_text['shmm']:.4f} must strictly exceed location-only "
        f"{with_text['hmm']:.4f}"
    )
    without_text = _directional_setup(kappa_text=0.0)
    gap = abs(without_text["shmm"] - without_text["hmm"])
    assert gap <= 0.01, f"presets diverge by {gap * 100:.2f}pp with no text signal"
    _report(9, f"text signal: shmm {with_text['shmm']:.4f} > hmm {with_text['hmm']:.4f}; "
               f"no text signal: gap {gap * 100:.2f}pp <= 1pp over 2000 pools")


def test_criterion_10_substituted_property_checks(recovery_run):
    # The real-data LA/NY results (absolute accuracy@K, the average margin
    # over the strongest published baseline, the named real-data topic
    # states, absolute training times) are NOT reproducible here: they
    # depend on private datasets and an unavailable baseline system.  This
    # criterion runs the stated substitutes.
    #
    # (a) kappa ordering on planted topics: broader topic -> lower kappa.
    k, p = 3, 8
    model_true = planted_model(k, p, seed=31, kappas=[10.0, 50.0, 200.0])
    corpus = sample_corpus(model_true, 400, 12, seed=32)
    model, _ = baum_welch(
        corpus, k, EmissionConfig.shmm(), init=KMeansInit(seed=0),
        stop=StopCriteria(rel_tol=1e-8, max_iters=60),
    )
    cos = np.array(
        [[float(s.text.mu @ t.text.mu) for t in model_true.states] for s in model.states]
    )
    row, col = linear_sum_assignment(-cos)
    perm = np.empty(k, dtype=int)
    perm[col] = row
    fitted_kappas = [model.states[j].text.kappa for j in perm]
    assert fitted_kappas[0] < fitted_kappas[1] < fitted_kappas[2], fitted_kappas

    # (b) EM wall time grows superlinearly in the state count.
    corpus6 = recovery_run[1]  # the criterion-6 corpus
    ks = [5, 10, 20, 40]
    med_seconds = []
    for n_states in ks:
        _, history = baum_welch(
            corpus6, n_states, EmissionConfig.shmm(), init=KMeansInit(seed=0),
            stop=StopCriteria(rel_tol=0.0, max_iters=3),
        )
        med_seconds.append(float(np.median([h.seconds for h in history])))
    slope = float(np.polyfit(np.log(ks), np.log(med_seconds), 1)[0])
    assert slope > 1.0, f"EM time slope {slope:.2f} vs K={ks}, seconds={med_seconds}"
    _report(10, "real-data results out of scope (unavailable data/baseline); "
                f"substitutes pass: kappa ordering {[f'{x:.1f}' for x in fitted_kappas]}, "
                f"EM time slope {slope:.2f} > 1 over K={ks} "
                "(criterion 9 covers the prediction substitute)")
