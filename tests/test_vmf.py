"""Tests for the vMF density, concentration estimation and sampler."""

import logging
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import kstest

import _kappa_reference
from shmm import vmf
from shmm.special_fns import _a_prime, bessel_ratio_a
from shmm.vmf import (
    KAPPA_MAX,
    DegenerateResultantWarning,
    EmptyInputError,
    NearUniformWarning,
    NoConvergenceError,
    ResultantStats,
    VmfParams,
    ZeroResultantWarning,
    banerjee_init,
    estimate_kappa,
    fit_vmf,
    sample_vmf,
    solve_concentration,
    vmf_log_pdf,
)

mp.mp.dps = 40

# A_3(5) = coth(5) - 1/5, forward-evaluated closed form
A3_OF_5 = 0.80009080398201938


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def bisect_kappa(p, r_bar, lo=1e-12, hi=None, tol=1e-12):
    """Independent bisection oracle on bessel_ratio_a."""
    if hi is None:
        hi = 1.0
        while bessel_ratio_a(p, hi) < r_bar:
            hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if bessel_ratio_a(p, mid) < r_bar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLogPdf:
    def test_mode_value_p3(self):
        # closed form C_3(k) = k / (4 pi sinh k): log C_3(1) + 1
        mu = unit([1.0, 2.0, -0.5])
        params = VmfParams(mu=mu, kappa=1.0, p=3)
        assert vmf_log_pdf(params, mu) == pytest.approx(-1.6924636085404864, abs=1e-12)

    def test_uniform_on_two_sphere(self):
        params = VmfParams(mu=np.array([0.0, 0.0, 1.0]), kappa=0.0, p=3)
        m = unit([1.0, 1.0, 1.0])
        assert vmf_log_pdf(params, m) == pytest.approx(-2.5310242469692908, abs=1e-12)

    def test_antipode_swings_by_two_kappa(self):
        mu = unit([3.0, -1.0, 2.0])
        params = VmfParams(mu=mu, kappa=1.0, p=3)
        assert vmf_log_pdf(params, -mu) == pytest.approx(
            vmf_log_pdf(params, mu) - 2.0, abs=1e-12
        )

    def test_rejects_non_unit_m(self):
        params = VmfParams(mu=np.array([1.0, 0.0]), kappa=2.0, p=2)
        with pytest.raises(ValueError):
            vmf_log_pdf(params, np.array([1.0, 1.0]))

    def test_rejects_nan_m(self):
        params = VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=2.0, p=3)
        with pytest.raises(ValueError, match=r"m must be unit norm, got \|\|m\|\| = nan"):
            vmf_log_pdf(params, np.array([math.nan, 0.0, 0.0]))

    def test_maximized_at_mean_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 30))
            mu = unit(rng.standard_normal(p))
            params = VmfParams(mu=mu, kappa=float(rng.uniform(0.5, 50.0)), p=p)
            at_mode = vmf_log_pdf(params, mu)
            for _ in range(10):
                m = unit(rng.standard_normal(p))
                assert vmf_log_pdf(params, m) <= at_mode + 1e-12

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
    def test_normalizes_on_two_sphere(self, kappa):
        # latitude-longitude grid quadrature of the density over S^2
        mu = unit([0.3, -0.2, 0.93])
        params = VmfParams(mu=mu, kappa=kappa, p=3)
        n_theta, n_phi = 2001, 401
        theta = np.linspace(0.0, math.pi, n_theta)
        phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        xyz = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        )
        from shmm.vmf import vmf_log_norm_const

        log_f = vmf_log_norm_const(3, kappa) + kappa * (xyz @ mu)
        integrand = np.exp(log_f) * np.sin(tt)
        from scipy.integrate import simpson

        total = simpson(simpson(integrand, x=phi, axis=1), x=theta)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestEstimateKappa:
    def test_inverts_closed_form_p3(self):
        stats = ResultantStats(resultant=np.array([A3_OF_5, 0.0, 0.0]), weight=1.0)
        est = estimate_kappa(stats)
        assert est.kappa == pytest.approx(5.0, abs=1e-9)
        assert est.residual <= 1e-13

    def test_newton_residual_three_iterations_p100(self):
        # paper regime: p=100, kappa=100, N=100000 samples
        p, kappa_true, n = 100, 100.0, 100_000
        mu = np.zeros(p)
        mu[0] = 1.0
        samples = sample_vmf(VmfParams(mu=mu, kappa=kappa_true, p=p), n, seed=42)
        resultant = samples.sum(axis=0)
        stats = ResultantStats(resultant=resultant, weight=float(n))
        trace = solve_concentration(stats.r_bar, p)
        # residuals[0] is the initializer; below tolerance within 3 steps
        assert min(trace.residuals[1:4]) < 1e-13
        assert trace.residuals[-1] < 1e-13
        assert not trace.used_fallback

    def test_bisection_cross_check_p2(self):
        stats = ResultantStats(resultant=np.array([0.5, 0.0]), weight=1.0)
        est = estimate_kappa(stats)
        oracle = bisect_kappa(2, 0.5)
        assert est.kappa == pytest.approx(oracle, abs=1e-10)
        assert abs(bessel_ratio_a(2, est.kappa) - 0.5) <= 1e-13

    def test_unique_root_matches_bisection_on_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = int(rng.integers(2, 201))
            kappa_true = float(10 ** rng.uniform(math.log10(0.5), 3.0))
            r_bar = bessel_ratio_a(p, kappa_true)
            trace = solve_concentration(r_bar, p)
            oracle = bisect_kappa(p, r_bar)
            assert abs(trace.kappas[-1] - oracle) < 1e-10 * max(1.0, kappa_true)

    def test_monotone_approach_from_below(self):
        # starting at or below the root, iterates never decrease and never
        # pass the root
        rng = np.random.default_rng(29)
        for _ in range(25):
            p = int(rng.integers(2, 101))
            kappa_true = float(10 ** rng.uniform(-0.3, 3.0))
            r_bar = bessel_ratio_a(p, kappa_true)
            kappa0 = kappa_true * float(rng.uniform(0.05, 1.0))
            trace = solve_concentration(r_bar, p, kappa0=kappa0)
            ks = trace.kappas
            # non-decreasing up to evaluation noise (the final polishing
            # step may wiggle within the root's noise band)
            slack = 1e-9 * max(1.0, kappa_true)
            assert all(k2 >= k1 - slack for k1, k2 in zip(ks, ks[1:]))
            assert all(k <= kappa_true + slack for k in ks)

    def test_quadratic_rate_in_extended_precision(self):
        # |e_{n+1}| <= |C| e_n^2 with fitted |C| < 1; run the production
        # driver under mpmath arithmetic so sub-machine errors are visible
        mp.mp.dps = 30

        def ratio_mp(p, kappa):
            return mp.besseli(mp.mpf(p) / 2, kappa) / mp.besseli(mp.mpf(p) / 2 - 1, kappa)

        rng = np.random.default_rng(31)
        fitted = []
        for _ in range(10):
            p = int(rng.integers(2, 201))
            kappa_true = float(10 ** rng.uniform(math.log10(0.5), 3.0))
            r_bar = ratio_mp(p, mp.mpf(kappa_true))
            trace = solve_concentration(r_bar, p, tol=1e-25, ratio_fn=ratio_mp)
            root = trace.kappas[-1]
            errors = [k - root for k in trace.kappas]
            for e_n, e_n1 in zip(errors, errors[1:]):
                if 1e-8 < abs(e_n) < 1e-1:
                    fitted.append(float(abs(e_n1) / e_n ** 2))
        assert fitted, "grid produced no errors inside the measurement window"
        assert all(0.0 < c < 1.0 for c in fitted)

    def test_degenerate_resultant_caps(self):
        stats = ResultantStats(resultant=np.array([1.0, 0.0, 0.0]), weight=1.0)
        with pytest.warns(DegenerateResultantWarning):
            est = estimate_kappa(stats)
        assert est.kappa == KAPPA_MAX

    def test_near_uniform_returns_zero(self):
        stats = ResultantStats(resultant=np.array([1e-12, 0.0, 0.0]), weight=1.0)
        with pytest.warns(NearUniformWarning):
            est = estimate_kappa(stats)
        assert est.kappa == 0.0

    def test_resultant_stats_validation(self):
        with pytest.raises(ValueError):
            ResultantStats(resultant=np.array([2.0, 0.0]), weight=1.0)
        with pytest.raises(ValueError):
            ResultantStats(resultant=np.array([0.5, 0.0]), weight=0.0)
        with pytest.raises(ValueError, match="resultant must be finite"):
            ResultantStats(resultant=np.array([math.nan, 0.0]), weight=1.0)


def _ratio_mp(p, kappa):
    return mp.besseli(mp.mpf(p) / 2, kappa) / mp.besseli(mp.mpf(p) / 2 - 1, kappa)


def _r_bar_grid(p):
    """r_bar from 1e-9 up to the last double below A_p(KAPPA_MAX)."""
    cap = bessel_ratio_a(p, KAPPA_MAX)
    grid = [1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
    grid += [1.0 - 10.0 ** -k for k in range(3, 8)]
    grid += [cap - 1e-9, float(np.nextafter(cap, 0.0))]
    return [r for r in grid if r < cap]


class TestSolverMatchesReference:
    """From the Banerjee start the bracketed loop retraces the two-solver code."""

    P_GRID = (2, 3, 5, 10, 30, 100, 200, 400)

    @pytest.mark.parametrize("p", P_GRID)
    def test_same_iterates_in_double_precision(self, p):
        for r_bar in _r_bar_grid(p):
            new = solve_concentration(r_bar, p)
            old = _kappa_reference.solve_concentration(r_bar, p)
            assert new.kappas == old.kappas, f"r_bar={r_bar!r}"
            assert new.residuals == old.residuals, f"r_bar={r_bar!r}"
            assert not new.used_fallback and not old.used_fallback

    @pytest.mark.parametrize("p", P_GRID)
    def test_same_iterates_under_mpmath(self, p):
        with mp.workdps(30):
            for r_bar in _r_bar_grid(p):
                new = solve_concentration(r_bar, p, ratio_fn=_ratio_mp)
                old = _kappa_reference.solve_concentration(r_bar, p, ratio_fn=_ratio_mp)
                assert new.kappas == old.kappas, f"r_bar={r_bar!r}"
                assert new.residuals == old.residuals, f"r_bar={r_bar!r}"


class TestBracketSafeguard:
    @pytest.mark.parametrize("p,kappa_true", [(2, 1.0), (3, 5.0), (10, 10.0), (100, 100.0),
                                              (200, 1000.0)])
    def test_start_far_above_root_bisects_to_it(self, p, kappa_true):
        r_bar = bessel_ratio_a(p, kappa_true)
        kappa0 = 5.0 * kappa_true
        a0 = bessel_ratio_a(p, kappa0)
        assert kappa0 - (a0 - r_bar) / _a_prime(p, kappa0, a0) <= 0.0
        trace = solve_concentration(r_bar, p, kappa0=kappa0)
        assert trace.used_fallback
        oracle = bisect_kappa(p, r_bar)
        assert abs(trace.kappas[-1] - oracle) < 1e-10 * max(1.0, kappa_true)

    def test_unreachable_target_raises_naming_the_problem(self):
        # the root (~5e10) lies where A_2' is lost to cancellation, so every
        # step is a bisection or a doubling and the budget runs out
        with pytest.raises(NoConvergenceError, match=r"p=2, r_bar=0\.99999999999\b"):
            solve_concentration(1.0 - 1e-11, 2)

    @pytest.mark.parametrize("r_bar", [0.0, 1.0, 1.5, -0.2, math.nan, mp.mpf(1), mp.mpf(0)])
    def test_target_outside_the_open_unit_interval_raises(self, r_bar):
        with pytest.raises(ValueError, match="^r_bar must lie in \\(0, 1\\)"):
            solve_concentration(r_bar, 10)

    def test_engaging_the_safeguard_is_logged_once(self, caplog):
        r_bar = bessel_ratio_a(10, 10.0)
        with caplog.at_level(logging.INFO, logger="shmm.vmf"):
            solve_concentration(r_bar, 10, kappa0=50.0)
        assert [r.getMessage() for r in caplog.records] == [
            f"kappa solve left its bracket; bisecting (p=10, r_bar={r_bar}, start kappa=50.0)"
        ]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="shmm.vmf"):
            assert not solve_concentration(r_bar, 10).used_fallback
        assert not caplog.records

    def test_cap_ratio_is_computed_once_per_dimension(self):
        vmf._ratio_at_cap.cache_clear()
        for r in (0.3, 0.6, 0.9):
            estimate_kappa(ResultantStats(resultant=np.array([r, 0.0, 0.0, 0.0]), weight=1.0))
        assert vmf._ratio_at_cap.cache_info().misses == 1

    def test_capped_residual_uses_the_cap_ratio(self):
        cap = bessel_ratio_a(4, KAPPA_MAX)
        stats = ResultantStats(resultant=np.array([cap, 0.0, 0.0, 0.0]), weight=1.0)
        with pytest.warns(DegenerateResultantWarning):
            est = estimate_kappa(stats)
        assert est == (KAPPA_MAX, 0, abs(cap - stats.r_bar))
        below = float(np.nextafter(cap, 0.0))
        stats = ResultantStats(resultant=np.array([below, 0.0, 0.0, 0.0]), weight=1.0)
        assert estimate_kappa(stats).kappa <= KAPPA_MAX


class TestFitVmf:
    def test_identical_vectors_cap(self):
        vecs = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
        with pytest.warns(DegenerateResultantWarning):
            params = fit_vmf(vecs)
        assert params.kappa == KAPPA_MAX
        np.testing.assert_allclose(params.mu, [1.0, 0.0, 0.0])

    def test_antipodal_vectors_zero_resultant(self):
        vecs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.warns(ZeroResultantWarning):
            params = fit_vmf(vecs)
        assert params.kappa == 0.0
        np.testing.assert_allclose(params.mu, [1.0, 0.0])

    def test_round_trip_p30(self):
        p, kappa_true, n = 30, 50.0, 100_000
        mu = unit(np.arange(1, p + 1))
        samples = sample_vmf(VmfParams(mu=mu, kappa=kappa_true, p=p), n, seed=7)
        params = fit_vmf(samples)
        assert params.kappa == pytest.approx(kappa_true, rel=0.02)
        assert float(params.mu @ mu) > 0.999

    def test_weighted_equals_replicated(self):
        rng = np.random.default_rng(5)
        vecs = np.array([unit(rng.standard_normal(4)) for _ in range(6)])
        weights = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0])
        replicated = np.repeat(vecs, weights.astype(int), axis=0)
        a = fit_vmf(vecs, weights)
        b = fit_vmf(replicated)
        assert a.kappa == pytest.approx(b.kappa, rel=1e-10)
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fit_vmf(np.zeros((0, 3)))
        with pytest.raises(EmptyInputError):
            fit_vmf(np.array([[1.0, 0.0]]), weights=[0.0])

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            fit_vmf(np.array([[1.0, 1.0]]))

    def test_rejects_nan_vectors(self):
        vecs = np.array([[1.0, 0.0], [math.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"vector 1 is not unit norm \(\|\|m\|\| = nan\)"):
            fit_vmf(vecs)


class TestSampler:
    def test_uniform_resultant_is_small(self):
        params = VmfParams(mu=np.array([0.0, 0.0, 1.0]), kappa=0.0, p=3)
        samples = sample_vmf(params, 1_000_000, seed=11)
        assert float(np.linalg.norm(samples.mean(axis=0))) < 0.005

    def test_mean_cosine_matches_ratio_p3(self):
        mu = unit([1.0, -1.0, 0.5])
        params = VmfParams(mu=mu, kappa=5.0, p=3)
        samples = sample_vmf(params, 1_000_000, seed=13)
        assert float((samples @ mu).mean()) == pytest.approx(A3_OF_5, abs=0.002)

    def test_round_trip_p100(self):
        p = 100
        mu = unit(np.ones(p))
        params = VmfParams(mu=mu, kappa=100.0, p=p)
        samples = sample_vmf(params, 100_000, seed=17)
        fitted = fit_vmf(samples)
        assert fitted.kappa == pytest.approx(100.0, rel=0.05)

    def test_unit_norm_and_determinism(self):
        mu = unit([2.0, 1.0, -1.0, 0.5])
        params = VmfParams(mu=mu, kappa=20.0, p=4)
        a = sample_vmf(params, 500, seed=19)
        b = sample_vmf(params, 500, seed=19)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p,kappa", [(3, 1.0), (10, 20.0), (30, 100.0)])
    def test_radial_marginal_ks(self, p, kappa):
        # t = mu^T m has density proportional to (1-t^2)^((p-3)/2) e^(kappa t)
        mu = np.zeros(p)
        mu[-1] = 1.0
        params = VmfParams(mu=mu, kappa=kappa, p=p)
        samples = sample_vmf(params, 50_000, seed=23)
        t = samples @ mu

        grid = np.linspace(-1.0, 1.0, 200_001)
        inner = grid[1:-1]
        log_dens = kappa * inner + 0.5 * (p - 3) * np.log1p(-inner * inner)
        log_dens -= log_dens.max()
        dens = np.concatenate([[0.0], np.exp(log_dens), [0.0]])
        if p == 2:
            dens[0] = dens[-1] = np.inf
        cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5)])
        cdf_grid /= cdf_grid[-1]
        result = kstest(t, lambda x: np.interp(x, grid, cdf_grid))
        assert result.pvalue > 0.01

    def test_banerjee_initializer_formula(self):
        r, p = 0.37, 12
        assert banerjee_init(r, p) == pytest.approx(
            (0.37 * 12 - 0.37 ** 3) / (1 - 0.37 ** 2), rel=1e-15
        )


class TestVmfParams:
    def test_rejects_non_unit_mu(self):
        with pytest.raises(ValueError):
            VmfParams(mu=np.array([1.0, 1.0]), kappa=1.0, p=2)
        with pytest.raises(ValueError, match="mu must be unit norm"):
            VmfParams(mu=np.array([math.nan, 0.0]), kappa=1.0, p=2)

    def test_rejects_bad_kappa(self):
        mu = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            VmfParams(mu=mu, kappa=-1.0, p=2)
        with pytest.raises(ValueError):
            VmfParams(mu=mu, kappa=float("inf"), p=2)
        with pytest.raises(ValueError):
            VmfParams(mu=mu, kappa=KAPPA_MAX * 2, p=2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            VmfParams(mu=np.array([1.0, 0.0, 0.0]), kappa=1.0, p=2)
