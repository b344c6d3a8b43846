"""Tests for the log Bessel evaluation and the ratio A_p."""

import math

import mpmath as mp
import numpy as np
import pytest

from shmm.special_fns import KAPPA_EVAL_MAX, bessel_ratio_a, bessel_ratio_a_prime, log_bessel_i

mp.mp.dps = 40


def mp_log_iv(v, kappa):
    """Arbitrary-precision oracle for log I_v(kappa)."""
    return float(mp.log(mp.besseli(v, kappa)))


def mp_ratio(p, kappa):
    """Arbitrary-precision oracle for A_p(kappa)."""
    return float(mp.besseli(mp.mpf(p) / 2, kappa) / mp.besseli(mp.mpf(p) / 2 - 1, kappa))


class TestLogBesselI:
    def test_half_order_closed_form(self):
        # I_{1/2}(k) = sqrt(2/(pi k)) sinh k
        assert log_bessel_i(0.5, 1.0) == pytest.approx(-0.064351991073531799, abs=1e-13)

    def test_three_halves_closed_form(self):
        # I_{3/2}(k) = sqrt(2/(pi k)) (cosh k - sinh k / k)
        assert log_bessel_i(1.5, 1.0) == pytest.approx(-1.2257913526447274, abs=1e-13)

    def test_tiny_argument_high_order_no_underflow(self):
        # leading series term dominates: v log(k/2) - log Gamma(v+1)
        got = log_bessel_i(14.0, 1e-8)
        assert math.isfinite(got) and got < 0
        assert got == pytest.approx(-292.78481212591103, abs=1e-9)

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 1.5, 5.0, 14.0, 49.0, 49.5, 99.5, 150.0])
    @pytest.mark.parametrize(
        "kappa", [1e-6, 1e-4, 1e-2, 0.5, 1.0, 5.0, 29.0, 30.0, 31.0, 1e2, 1e3, 1e4, 1e5, 1e6]
    )
    def test_against_high_precision_oracle(self, v, kappa):
        got = log_bessel_i(v, kappa)
        exact = mp_log_iv(v, kappa)
        # |d log I| is the relative error of the implied I_v
        assert abs(got - exact) < 1e-10

    def test_top_of_the_evaluated_range(self):
        assert log_bessel_i(14.0, KAPPA_EVAL_MAX) == pytest.approx(
            mp_log_iv(14.0, KAPPA_EVAL_MAX), rel=1e-15)

    # above KAPPA_EVAL_MAX the continued fraction's first step overflows
    # (log I_14(1e9) came out as inf)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf,
                                     math.nextafter(KAPPA_EVAL_MAX, math.inf), 1e9])
    def test_domain_errors_kappa(self, bad):
        with pytest.raises(ValueError):
            log_bessel_i(1.0, bad)

    def test_domain_error_negative_order(self):
        with pytest.raises(ValueError):
            log_bessel_i(-0.5, 1.0)


class TestBesselRatio:
    def test_p3_closed_form_at_1(self):
        # A_3(k) = coth k - 1/k
        assert bessel_ratio_a(3, 1.0) == pytest.approx(0.3130352854993313, rel=1e-12)

    def test_p3_closed_form_at_100(self):
        assert bessel_ratio_a(3, 100.0) == pytest.approx(0.99, rel=1e-12)

    def test_p2_small_kappa_decays_to_zero(self):
        values = [bessel_ratio_a(2, k) for k in (1e-1, 1e-2, 1e-3)]
        assert values[0] > values[1] > values[2] > 0.0
        assert values[2] < 1e-3

    @pytest.mark.parametrize("p", [2, 3, 4, 10, 30, 100, 300])
    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 1.0, 10.0, 50.0, 200.0, 1e4, 1e6])
    def test_against_high_precision_oracle(self, p, kappa):
        got = bessel_ratio_a(p, kappa)
        exact = mp_ratio(p, kappa)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_p3_closed_form_grid(self):
        for kappa in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4):
            exact = float(mp.coth(kappa) - 1 / mp.mpf(kappa))
            assert bessel_ratio_a(3, kappa) == pytest.approx(exact, rel=1e-12)

    def test_monotone_in_kappa(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            p = int(rng.integers(2, 201))
            k1, k2 = np.sort(rng.uniform(1e-3, 1e4, size=2))
            if k1 == k2:
                continue
            assert bessel_ratio_a(p, k1) < bessel_ratio_a(p, k2)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = int(rng.integers(2, 201))
            kappa = float(10 ** rng.uniform(-4, 6))
            a = bessel_ratio_a(p, kappa)
            assert 0.0 < a < 1.0

    def test_exponential_bounds(self):
        # exp(-p/(2k)) <= A_p(k) <= exp(-alpha0 (p-1)/(2k)) whenever p <= 2k
        alpha0 = -math.log(math.sqrt(2.0) - 1.0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(2, 201))
            kappa = float(rng.uniform(0.5 * p, 50.0 * p))
            a = bessel_ratio_a(p, kappa)
            assert math.exp(-p / (2.0 * kappa)) <= a <= math.exp(-alpha0 * (p - 1) / (2.0 * kappa))

    @pytest.mark.parametrize("bad_p", [1, 0, -3])
    def test_domain_error_p(self, bad_p):
        with pytest.raises(ValueError):
            bessel_ratio_a(bad_p, 1.0)

    @pytest.mark.parametrize("p", [2, 30, 200])
    def test_top_of_the_evaluated_range(self, p):
        assert bessel_ratio_a(p, KAPPA_EVAL_MAX) == pytest.approx(
            mp_ratio(p, KAPPA_EVAL_MAX), rel=1e-12)

    def test_domain_error_kappa(self):
        with pytest.raises(ValueError):
            bessel_ratio_a(3, 0.0)
        with pytest.raises(ValueError):
            bessel_ratio_a(3, -2.0)
        # A_2 came out as inf above about 3.6e8
        with pytest.raises(ValueError, match=r"^kappa must lie in \(0, 1e\+08\], got 1000000000\.0$"):
            bessel_ratio_a(2, 1e9)


class TestBesselRatioPrime:
    def test_plugin_of_closed_form(self):
        a = bessel_ratio_a(3, 1.0)
        assert bessel_ratio_a_prime(3, 1.0, a) == pytest.approx(0.27593833903368953, rel=1e-10)

    def test_limit_at_large_kappa(self):
        a = bessel_ratio_a(3, 1e4)
        d = bessel_ratio_a_prime(3, 1e4, a)
        assert 0.0 < d < 1e-3

    def test_positive_everywhere(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            p = int(rng.integers(2, 201))
            kappa = float(10 ** rng.uniform(-3, 5))
            a = bessel_ratio_a(p, kappa)
            assert bessel_ratio_a_prime(p, kappa, a) > 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = int(rng.integers(2, 101))
            kappa = float(10 ** rng.uniform(math.log10(0.1), 3.0))
            h = 1e-6 * max(kappa, 1.0)
            fd = (bessel_ratio_a(p, kappa + h) - bessel_ratio_a(p, kappa - h)) / (2.0 * h)
            a = bessel_ratio_a(p, kappa)
            exact = bessel_ratio_a_prime(p, kappa, a)
            assert fd == pytest.approx(exact, rel=1e-6)

    def test_concavity_by_finite_differences(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            p = int(rng.integers(2, 101))
            kappa = float(10 ** rng.uniform(-1, 3))
            h = 1e-4 * max(kappa, 1.0)
            second = (
                bessel_ratio_a(p, kappa + h)
                - 2.0 * bessel_ratio_a(p, kappa)
                + bessel_ratio_a(p, kappa - h)
            ) / (h * h)
            assert second < 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_ratio_a_prime(3, -1.0, 0.5)
