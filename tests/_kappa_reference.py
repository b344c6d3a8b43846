"""Two-solver concentration solve, kept as the oracle for `vmf.solve_concentration`.

This is the former `solve_concentration` of `shmm.vmf` with its
`_bisection_newton` fallback, verbatim: plain Newton that hands over to a
separate bracketed bisection-Newton hybrid when an iterate turns
non-positive or the residual grows.  From the Banerjee start the
single-loop solver must reproduce its iterates and residuals exactly.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

from shmm.special_fns import _a_prime, bessel_ratio_a
from shmm.vmf import NewtonTrace, NoConvergenceError, banerjee_init

logger = logging.getLogger(__name__)


def solve_concentration(
    r_bar,
    p: int,
    tol: float = 1e-13,
    max_iter: int = 50,
    ratio_fn: Callable = None,
    kappa0=None,
) -> NewtonTrace:
    """Solve A_p(kappa) = r_bar by safeguarded Newton iteration.

    Arithmetic is generic: r_bar (and the values returned by ratio_fn) may
    be floats or any type supporting float-like operations, so the same
    driver can be run under extended precision for convergence studies.

    Parameters
    ----------
    r_bar : real in (0, 1)
        Target mean resultant length.
    p : int
        Dimension (>= 2).
    tol : float
        Stop when |A_p(kappa) - r_bar| <= tol.
    max_iter : int
        Iteration budget; exceeding it raises NoConvergenceError.
    ratio_fn : callable (p, kappa) -> A_p(kappa), optional
        Defaults to the double-precision implementation.
    kappa0 : positive real, optional
        Starting point; defaults to the Banerjee initializer.

    Returns
    -------
    NewtonTrace
        Iterates and residuals, initializer included.
    """
    if ratio_fn is None:
        ratio_fn = bessel_ratio_a
    kappa = banerjee_init(r_bar, p) if kappa0 is None else kappa0
    a = ratio_fn(p, kappa)
    res = abs(a - r_bar)
    trace = NewtonTrace(kappas=[kappa], residuals=[res])
    logger.debug("kappa solve init: p=%d kappa=%s residual=%s", p, kappa, res)
    for _ in range(max_iter):
        if res <= tol:
            # One polishing step: the residual criterion alone can leave
            # kappa ~ tol/A_p' short of the root where A_p is flat (large
            # p and kappa); a final first-order step closes that gap down
            # to evaluation noise.
            a_prime = _a_prime(p, kappa, a)
            kappa_polish = kappa - (a - r_bar) / a_prime
            if kappa_polish > 0.0 and math.isfinite(float(kappa_polish)) \
                    and kappa_polish != kappa:
                a_polish = ratio_fn(p, kappa_polish)
                trace.kappas.append(kappa_polish)
                trace.residuals.append(abs(a_polish - r_bar))
            return trace
        a_prime = _a_prime(p, kappa, a)
        kappa_next = kappa - (a - r_bar) / a_prime
        if kappa_next <= 0.0:
            return _bisection_newton(r_bar, p, kappa, tol, max_iter, ratio_fn, trace)
        a_next = ratio_fn(p, kappa_next)
        res_next = abs(a_next - r_bar)
        if res_next >= res:
            return _bisection_newton(r_bar, p, kappa, tol, max_iter, ratio_fn, trace)
        kappa, a, res = kappa_next, a_next, res_next
        trace.kappas.append(kappa)
        trace.residuals.append(res)
        logger.debug("kappa solve step %d: kappa=%s residual=%s",
                     trace.iterations, kappa, res)
    raise NoConvergenceError(
        f"concentration solve did not reach tol={tol} in {max_iter} iterations "
        f"(p={p}, r_bar={r_bar}); this should not happen"
    )


def _bisection_newton(r_bar, p, kappa_start, tol, max_iter, ratio_fn, trace):
    """Bracketed bisection-Newton fallback (engages only on safeguard trips)."""
    trace.used_fallback = True
    lo = hi = max(float(kappa_start), 1e-8)
    if ratio_fn(p, hi) < r_bar:
        while ratio_fn(p, hi) < r_bar:
            hi *= 2.0
            if hi > 1e13:
                raise NoConvergenceError("bracket expansion ran away; r_bar too close to 1")
        lo = hi / 2.0
    else:
        while ratio_fn(p, lo) > r_bar:
            lo /= 2.0
            if lo < 1e-300:
                raise NoConvergenceError("bracket expansion ran away; r_bar too close to 0")
        hi = lo * 2.0
    kappa = 0.5 * (lo + hi)
    for _ in range(max_iter + 200):
        a = ratio_fn(p, kappa)
        res = abs(a - r_bar)
        trace.kappas.append(kappa)
        trace.residuals.append(res)
        if res <= tol:
            return trace
        if a < r_bar:
            lo = kappa
        else:
            hi = kappa
        a_prime = _a_prime(p, kappa, a)
        kappa_next = kappa - (a - r_bar) / a_prime
        if not lo < kappa_next < hi:
            kappa_next = 0.5 * (lo + hi)
        if kappa_next == kappa:
            # bracket exhausted at machine resolution
            return trace
        kappa = kappa_next
    raise NoConvergenceError(
        f"bisection-Newton fallback did not converge (p={p}, r_bar={r_bar})"
    )
