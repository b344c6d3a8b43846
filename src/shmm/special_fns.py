"""Numerically stable modified Bessel functions of the first kind.

Everything the rest of the package needs reduces to two quantities:

* ``log_bessel_i(v, kappa)``: the natural log of

      I_v(kappa) = sum_{q>=0} (kappa/2)^(2q+v) / (q! * Gamma(q+v+1)),

  evaluated without ever materializing I_v itself (it overflows doubles
  around kappa ~ 700 and underflows for large order with tiny argument).

* ``bessel_ratio_a(p, kappa)``: the ratio

      A_p(kappa) = I_{p/2}(kappa) / I_{p/2-1}(kappa),

  which is the mean cosine of a von Mises-Fisher sample against its mean
  direction and the function Newton's method inverts during concentration
  estimation.  A_p maps (0, inf) onto (0, 1), strictly increasing and
  strictly concave.

Evaluation strategy, switched on the argument:

* small kappa (kappa < max(30, v)): the ascending power series with every
  term computed in log space and combined by log-sum-exp.  All terms are
  positive, so there is no cancellation, only a bounded number of terms.
* large kappa: the ratio I_{nu+1}/I_nu comes from the Perron/Gautschi
  continued fraction evaluated with the modified Lentz algorithm (stable
  for all kappa, ~O(sqrt(kappa)) iterations), and log I_v is rebuilt from
  the large-argument asymptotic series at a base order u = v - floor(v)
  plus a chain of continued-fraction ratio steps up to v.  The pieces are
  combined with math.fsum so the result stays within ~1 ulp even when
  log I_v is of order 1e6.

Both functions are evaluated for kappa in (0, KAPPA_EVAL_MAX] only.  Above
about 3.6e8 * max(1, p/2) the continued fraction's first Lentz step
overflows and A_p comes out as inf; the vMF code never goes past its own
cap of 1e6, so the range is checked rather than extended.
"""

from __future__ import annotations

import math

_SERIES_KAPPA_CUTOFF = 30.0
_SERIES_TAIL_LOG = 46.0  # stop once terms fall 46 nats below the peak (~1e-20)
_SERIES_MAX_TERMS = 500_000
_CF_TOL = 5e-16
_LENTZ_TINY = 1e-300

#: Largest argument either function evaluates.
KAPPA_EVAL_MAX = 1e8


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not 0.0 < kappa <= KAPPA_EVAL_MAX:  # also rejects NaN and inf
        raise ValueError(f"kappa must lie in (0, {KAPPA_EVAL_MAX:g}], got {kappa!r}")
    return kappa


def _log_iv_series(v: float, kappa: float) -> float:
    """Ascending series for log I_v(kappa), summed in log space."""
    log_half = math.log(kappa / 2.0)
    log_terms = []
    peak = -math.inf
    q = 0
    while q < _SERIES_MAX_TERMS:
        lt = (2 * q + v) * log_half - math.lgamma(q + 1) - math.lgamma(q + v + 1)
        log_terms.append(lt)
        if lt > peak:
            peak = lt
        elif lt < peak - _SERIES_TAIL_LOG:
            break
        q += 1
    # log-sum-exp against the peak; terms are all positive so this is exact
    # up to rounding in the linear accumulation.
    return peak + math.log(math.fsum(math.exp(lt - peak) for lt in log_terms))


def _ratio_cf(nu: float, kappa: float) -> float:
    """I_{nu+1}(kappa) / I_nu(kappa) via continued fraction (modified Lentz).

    The fraction 1/(b_1 + 1/(b_2 + ...)) with b_n = 2(nu+n)/kappa converges
    for every positive kappa; the iteration count grows like sqrt(kappa).
    """
    f = _LENTZ_TINY
    c = f
    d = 0.0
    max_iter = int(40.0 * math.sqrt(kappa)) + 5_000
    for n in range(1, max_iter + 1):
        b = 2.0 * (nu + n) / kappa
        d = b + d
        if d == 0.0:
            d = _LENTZ_TINY
        c = b + 1.0 / c
        if c == 0.0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return f
    raise RuntimeError(
        f"Bessel ratio continued fraction did not converge (nu={nu}, kappa={kappa})"
    )


def _log_iv_asymptotic_parts(u: float, kappa: float) -> list[float]:
    """Addends of log I_u(kappa) for base order u in [0, 1) and kappa >= 30.

    Large-argument expansion I_u(k) ~ e^k / sqrt(2 pi k) * S(u, k) with
    S = 1 - (mu-1)/(8k) + (mu-1)(mu-9)/(2!(8k)^2) - ..., mu = 4u^2.  For
    u < 1 and k >= 30 the series reaches ~1e-17 well before its divergent
    tail, and the neglected e^{-2k} contribution is ~1e-26 or smaller.
    Returned unsummed so the caller can fold them into one compensated sum
    (pre-rounding the ~kappa-sized total would already cost half an ulp).
    """
    mu = 4.0 * u * u
    s = 1.0
    term = 1.0
    for k in range(1, 40):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * kappa * k)
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return [kappa, -0.5 * math.log(2.0 * math.pi * kappa), math.log(s)]


def log_bessel_i(v: float, kappa: float) -> float:
    """Natural log of the modified Bessel function I_v(kappa).

    Parameters
    ----------
    v : float
        Order, must be >= 0 (half-integer orders are the common case here:
        v = p/2 - 1 for the vMF normalizer in dimension p).
    kappa : float
        Argument in (0, KAPPA_EVAL_MAX].

    Returns
    -------
    float
        log I_v(kappa), within about one ulp of the log (so the implied
        I_v carries relative error well below 1e-10) across kappa in
        [1e-6, 1e6].

    Raises
    ------
    ValueError
        If kappa is outside (0, KAPPA_EVAL_MAX], or v is negative or
        non-finite.
    """
    kappa = _check_kappa(kappa)
    v = float(v)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"order v must be non-negative and finite, got {v!r}")

    if kappa < max(_SERIES_KAPPA_CUTOFF, v):
        return _log_iv_series(v, kappa)

    # kappa >= max(30, v): asymptotic regime.  Reduce to a base order in
    # [0, 1) and climb back up through continued-fraction ratio steps
    # log I_{w+1} = log I_w + log(I_{w+1}/I_w).
    n = int(math.floor(v))
    u = v - n
    parts = _log_iv_asymptotic_parts(u, kappa)
    for j in range(n):
        parts.append(math.log(_ratio_cf(u + j, kappa)))
    return math.fsum(parts)


def bessel_ratio_a(p: int, kappa: float) -> float:
    """The Bessel ratio A_p(kappa) = I_{p/2}(kappa) / I_{p/2-1}(kappa).

    Strictly increasing in kappa with range (0, 1); equals the expected
    cosine between a vMF(mu, kappa) sample in dimension p and mu.

    Parameters
    ----------
    p : int
        Ambient dimension, >= 2.
    kappa : float
        Concentration in (0, KAPPA_EVAL_MAX].

    Raises
    ------
    ValueError
        If p < 2 or kappa is outside (0, KAPPA_EVAL_MAX].
    """
    if int(p) != p or p < 2:
        raise ValueError(f"dimension p must be an integer >= 2, got {p!r}")
    kappa = _check_kappa(kappa)
    return _ratio_cf(p / 2.0 - 1.0, kappa)


def bessel_ratio_a_prime(p: int, kappa: float, a_value: float) -> float:
    """Derivative A_p'(kappa), given a_value = A_p(kappa).

    Uses the recurrence identity A_p' = 1 - A_p^2 - (p-1)/kappa * A_p,
    which is strictly positive for every kappa > 0; kappa must lie in
    (0, KAPPA_EVAL_MAX].
    """
    if int(p) != p or p < 2:
        raise ValueError(f"dimension p must be an integer >= 2, got {p!r}")
    kappa = _check_kappa(kappa)
    return _a_prime(p, kappa, float(a_value))


def _a_prime(p, kappa, a):
    """A_p'(kappa) from a = A_p(kappa), unchecked and in generic arithmetic (floats or mpmath)."""
    return 1.0 - a * a - (p - 1) / kappa * a
