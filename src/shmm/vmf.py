"""The von Mises-Fisher distribution on the unit sphere S^{p-1}.

Density for a unit vector m:

    f_p(m; mu, kappa) = C_p(kappa) * exp(kappa * mu^T m),
    C_p(kappa) = kappa^{p/2-1} / ((2 pi)^{p/2} * I_{p/2-1}(kappa)),

with mean direction mu (unit norm) and concentration kappa >= 0.  Larger
kappa concentrates mass around mu; kappa = 0 is the uniform distribution
on the sphere.

Maximum likelihood for kappa inverts the Bessel ratio: the optimum solves
A_p(kappa) = r_bar where r_bar is the mean resultant length of the
(weight-normalized) data.  There is exactly one root because A_p is a
continuous strictly increasing bijection of (0, inf) onto (0, 1), and
Newton's method converges to it quadratically.  The solver starts from
the closed-form initializer

    kappa_0 = (r_bar * p - r_bar^3) / (1 - r_bar^2)

and iterates kappa <- kappa - (A_p(kappa) - r_bar) / A_p'(kappa).  The
initializer can land on either side of the root; from above, the first
step crosses to the left of the root (A_p is concave) and the iterates
then increase monotonically.  Each evaluation of A_p also narrows a
bracket around the root, and a step that would leave the bracket is
replaced by bisection (or by doubling while there is no upper end yet),
so convergence is unconditional in practice.  Targets at or beyond
A_p(KAPPA_MAX), computed once per dimension, cap kappa at KAPPA_MAX.

No other module computes a vMF quantity: the density (`vmf_log_density`),
r_bar (`ResultantStats`), the cap ratio and every kappa edge live here.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .special_fns import _a_prime, bessel_ratio_a, log_bessel_i

logger = logging.getLogger(__name__)

#: Concentration ceiling.  Beyond this A_p(kappa) is within ~1e-6 of 1 for
#: all dimensions used here and the density is numerically degenerate.
KAPPA_MAX = 1e6

#: Rows per block of `fit_vmf`'s unit-norm check, so that it holds a
#: (NORM_ROWS, p) temporary and not an (N, p) one.
NORM_ROWS = 1024

#: Mean resultant lengths below this are treated as uniform (kappa = 0).
_R_BAR_UNIFORM = 1e-10


class NoConvergenceError(RuntimeError):
    """The concentration solve spent its iteration budget without reaching tol,
    or refused a target whose root lies beyond KAPPA_MAX."""


class EmptyInputError(ValueError):
    """No observations (or no positive weight) supplied to an estimator."""


class DegenerateResultantWarning(UserWarning):
    """r_bar at or beyond the invertible range; kappa capped at KAPPA_MAX."""


class NearUniformWarning(UserWarning):
    """r_bar indistinguishable from zero (a vanished resultant included); kappa set to 0."""


@dataclass(frozen=True)
class VmfParams:
    """Parameters of a vMF distribution in dimension p.

    mu must be unit norm (within 1e-12); kappa in [0, KAPPA_MAX].
    """

    mu: np.ndarray
    kappa: float
    p: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.shape[0] != self.p:
            raise ValueError(f"mu must be a vector of length p={self.p}")
        if self.p < 2:
            raise ValueError(f"dimension p must be >= 2, got {self.p}")
        norm = float(np.linalg.norm(mu))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"mu must be unit norm, got ||mu|| = {norm!r}")
        if not math.isfinite(self.kappa) or not 0.0 <= self.kappa <= KAPPA_MAX:
            raise ValueError(f"kappa must lie in [0, {KAPPA_MAX:g}], got {self.kappa!r}")


@dataclass(frozen=True)
class ResultantStats:
    """Sufficient statistics for kappa estimation.

    resultant is the (possibly responsibility-weighted) sum of unit
    vectors, weight the total weight (N for unweighted data), and
    r_bar = ||resultant|| / weight the mean resultant length, in [0, 1].
    """

    resultant: np.ndarray
    weight: float
    r_bar: float = field(init=False)

    def __post_init__(self):
        resultant = np.asarray(self.resultant, dtype=float)
        object.__setattr__(self, "resultant", resultant)
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise ValueError(f"weight must be positive, got {self.weight!r}")
        norm = float(np.linalg.norm(resultant))
        if not math.isfinite(norm):
            raise ValueError(f"resultant must be finite, got ||resultant|| = {norm!r}")
        if norm > self.weight * (1.0 + 1e-9):
            raise ValueError("||resultant|| exceeds total weight")
        object.__setattr__(self, "r_bar", min(norm / self.weight, 1.0))


class KappaEstimate(NamedTuple):
    kappa: float
    iterations: int
    residual: float


@dataclass
class NewtonTrace:
    """Full iterate trajectory of one concentration solve.

    kappas[0] is the initializer; residuals[i] = |A_p(kappas[i]) - r_bar|.
    """

    kappas: list
    residuals: list
    used_fallback: bool = False

    @property
    def iterations(self) -> int:
        return len(self.kappas) - 1


def banerjee_init(r_bar, p):
    """Closed-form starting point (r_bar * p - r_bar^3) / (1 - r_bar^2)."""
    return (r_bar * p - r_bar ** 3) / (1.0 - r_bar * r_bar)


def solve_concentration(
    r_bar,
    p: int,
    tol: float = 1e-13,
    max_iter: int = 50,
    ratio_fn: Callable = None,
    kappa0=None,
) -> NewtonTrace:
    """Solve A_p(kappa) = r_bar by Newton iteration inside a bracket.

    Every pass evaluates A_p at kappa and tightens the bracket (lo, hi),
    which starts at (0, inf), from the sign of A_p(kappa) - r_bar.  A
    Newton step that leaves the bracket (non-positive, NaN or past hi) is
    replaced by bisection, or by doubling kappa while hi is still inf, and
    the trace records used_fallback.  The solve ends once the residual is
    within tol (after one polishing step) or when a step no longer moves
    kappa.

    Arithmetic is generic: r_bar (and the values returned by ratio_fn) may
    be floats or any type supporting float-like operations, so the same
    driver can be run under extended precision for convergence studies.

    A target at or above A_p(KAPPA_MAX) raises NoConvergenceError before
    any ratio is evaluated: its root lies beyond the cap, where one
    evaluation of A_p costs O(sqrt(kappa)) and past 1e8 is refused.

    Parameters
    ----------
    r_bar : real in (0, 1)
        Target mean resultant length; any other value (NaN included)
        raises ValueError.
    p : int
        Dimension (>= 2).
    tol : float
        Stop when |A_p(kappa) - r_bar| <= tol.
    max_iter : int
        Iteration budget; exceeding it raises NoConvergenceError.
    ratio_fn : callable (p, kappa) -> A_p(kappa), optional
        Defaults to the double-precision implementation.
    kappa0 : positive real, optional
        Starting point, at most 1e8 for the default ratio_fn; defaults to
        the Banerjee initializer.

    Returns
    -------
    NewtonTrace
        Iterates and residuals, initializer included.
    """
    if not 0.0 < r_bar < 1.0:  # also rejects NaN; works for mpmath values too
        raise ValueError(f"r_bar must lie in (0, 1), got {r_bar}")
    if r_bar >= ratio_at_cap(p):
        raise NoConvergenceError(
            f"concentration solve refuses r_bar at or above A_p({KAPPA_MAX:g}): "
            f"its root exceeds the kappa cap (p={p}, r_bar={r_bar})"
        )
    if ratio_fn is None:
        ratio_fn = bessel_ratio_a
    kappa = banerjee_init(r_bar, p) if kappa0 is None else kappa0
    lo, hi = 0.0, math.inf
    trace = NewtonTrace(kappas=[], residuals=[])
    for _ in range(max_iter + 1):
        a = ratio_fn(p, kappa)
        res = abs(a - r_bar)
        trace.kappas.append(kappa)
        trace.residuals.append(res)
        logger.debug("kappa solve step %d: kappa=%s residual=%s",
                     trace.iterations, kappa, res)
        a_prime = _a_prime(p, kappa, a)
        step = kappa - (a - r_bar) / a_prime if a_prime > 0.0 else math.nan
        if res <= tol:
            # One polishing step: the residual criterion alone can leave
            # kappa ~ tol/A_p' short of the root where A_p is flat (large
            # p and kappa); a final first-order step closes that gap down
            # to evaluation noise.
            if step > 0.0 and math.isfinite(float(step)) and step != kappa:
                trace.kappas.append(step)
                trace.residuals.append(abs(ratio_fn(p, step) - r_bar))
            return trace
        if a < r_bar:
            lo = kappa
        else:
            hi = kappa
        if not lo < step < hi:
            if not trace.used_fallback:
                logger.info("kappa solve left its bracket; bisecting "
                            "(p=%d, r_bar=%s, start kappa=%s)", p, r_bar, trace.kappas[0])
            trace.used_fallback = True
            step = 2.0 * kappa if hi == math.inf else 0.5 * (lo + hi)
        if step == kappa:
            return trace
        kappa = step
    raise NoConvergenceError(
        f"concentration solve did not reach tol={tol} in {max_iter} iterations "
        f"(p={p}, r_bar={r_bar})"
    )


@lru_cache(maxsize=None)
def ratio_at_cap(p: int) -> float:
    """A_p(KAPPA_MAX): targets r_bar at or above it have their root beyond the cap."""
    return bessel_ratio_a(p, KAPPA_MAX)


def estimate_kappa(stats: ResultantStats) -> KappaEstimate:
    """Maximum-likelihood concentration for the given resultant statistics.

    The returned kappa is the unique root of A_p(kappa) = r_bar, except at
    the degenerate edges, which are decided here:
    r_bar >= A_p(KAPPA_MAX) (computed once per dimension) caps kappa at
    KAPPA_MAX with a DegenerateResultantWarning, and r_bar < 1e-10, a
    vanished resultant (r_bar = 0) included, returns kappa = 0 with a
    NearUniformWarning.
    """
    p = int(stats.resultant.shape[0])
    r_bar = stats.r_bar
    if r_bar < _R_BAR_UNIFORM:
        warnings.warn(
            f"r_bar={r_bar:.3g} is indistinguishable from uniform; kappa set to 0",
            NearUniformWarning,
            stacklevel=2,
        )
        return KappaEstimate(0.0, 0, r_bar)
    r_cap = ratio_at_cap(p)
    if r_bar >= r_cap:
        warnings.warn(
            f"r_bar={r_bar:.12g} requires kappa beyond {KAPPA_MAX:g}; capping",
            DegenerateResultantWarning,
            stacklevel=2,
        )
        return KappaEstimate(KAPPA_MAX, 0, abs(r_cap - r_bar))
    trace = solve_concentration(r_bar, p)
    return KappaEstimate(float(trace.kappas[-1]), trace.iterations, float(trace.residuals[-1]))


@lru_cache(maxsize=4096)
def vmf_log_norm_const(p: int, kappa: float) -> float:
    """log C_p(kappa), the log normalizer of the vMF density.

    For kappa = 0 this is -log of the surface area of S^{p-1}, the uniform
    log density on the sphere.
    """
    if kappa == 0.0:
        return -(math.log(2.0) + 0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p))
    v = 0.5 * p - 1.0
    return math.fsum([
        v * math.log(kappa),
        -0.5 * p * math.log(2.0 * math.pi),
        -log_bessel_i(v, kappa),
    ])


def vmf_log_density(params: Sequence[VmfParams], x: np.ndarray) -> np.ndarray:
    """(N, K) log densities log C_p(kappa_k) + kappa_k mu_k^T x_n of N unit
    vectors x (N, p) under K vMF distributions of the same dimension p.

    x is not checked for unit norm; the callers check their input."""
    mu = np.array([q.mu for q in params])
    kappa = np.array([float(q.kappa) for q in params])
    log_c = np.array([vmf_log_norm_const(q.p, float(q.kappa)) for q in params])
    out = x @ mu.T
    out *= kappa
    out += log_c
    return out


def vmf_log_pdf(params: VmfParams, m: np.ndarray) -> float:
    """Log density of the unit vector m under vMF(mu, kappa)."""
    m = np.asarray(m, dtype=float)
    norm = float(np.linalg.norm(m))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"m must be unit norm, got ||m|| = {norm!r}")
    return float(vmf_log_density([params], m[None])[0, 0])


def fit_vmf(vectors: np.ndarray,
            weights: np.ndarray | Sequence[float] | None = None) -> VmfParams | list[VmfParams]:
    """Weighted maximum-likelihood vMF fit, of one weight column or of K.

    mu is the normalized weighted resultant, kappa the Newton solution of
    A_p(kappa) = r_bar with r_bar = ||sum_i w_i m_i|| / sum_i w_i.  With
    unit weights this is the plain MLE; responsibilities act as fractional
    counts.

    weights of shape (N,) give one `VmfParams`; weights of shape (N, K)
    give a list of K, one per column, from one unit-norm check of the
    vectors and one (K, N) @ (N, p) product of resultants.

    Raises EmptyInputError when there is no data or a column has no
    positive weight.  A vanished resultant (||R|| < 1e-12 * total weight,
    e.g. perfectly antipodal data) has no direction, so mu = e_1;
    `estimate_kappa` gives it kappa = 0 with a NearUniformWarning.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise EmptyInputError("need a non-empty (N, p) array of unit vectors")
    n, p = vectors.shape
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[:1] != (n,) or weights.ndim > 2 or np.any(weights < 0.0):
        raise ValueError("weights must be a non-negative (N,) or (N, K) array matching the data")
    columns = weights.reshape(n, -1)
    totals = columns.sum(axis=0)
    if not np.all(totals > 0.0):
        raise EmptyInputError("total weight must be positive")
    norms = np.concatenate([np.linalg.norm(vectors[lo:lo + NORM_ROWS], axis=1)
                            for lo in range(0, n, NORM_ROWS)])
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"vector {bad} is not unit norm (||m|| = {float(norms[bad])!r})")

    fits = []
    for resultant, total in zip(columns.T @ vectors, totals.tolist()):
        r_norm = float(np.linalg.norm(resultant))
        if r_norm < 1e-12 * total:
            mu = np.zeros(p)
            mu[0] = 1.0
        else:
            mu = resultant / r_norm
        estimate = estimate_kappa(ResultantStats(resultant=resultant, weight=total))
        fits.append(VmfParams(mu=mu, kappa=estimate.kappa, p=p))
    return fits[0] if weights.ndim == 1 else fits


def _sample_radial(rng: np.random.Generator, kappa: float, p: int, n: int) -> np.ndarray:
    """Rejection-sample n values of w = mu^T x for vMF(kappa) in dimension p.

    Wood's envelope: with b = (p-1) / (sqrt(4 kappa^2 + (p-1)^2) + 2 kappa),
    draw z ~ Beta((p-1)/2, (p-1)/2), map to w = (1-(1+b)z) / (1-(1-b)z) and
    accept when kappa w + (p-1) log(1 - x0 w) - c >= log u.  For kappa = 0
    the test is always true and w has exactly the uniform-sphere marginal.
    """
    d = p - 1
    b = d / (math.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + d * math.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = n - filled
        z = rng.beta(0.5 * d, 0.5 * d, size=m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(m)
        accept = kappa * w + d * np.log1p(-x0 * w) - c >= np.log(u)
        n_acc = int(accept.sum())
        out[filled:filled + n_acc] = w[accept]
        filled += n_acc
    return np.clip(out, -1.0, 1.0)


def sample_vmf(params: VmfParams, n: int, seed: int) -> np.ndarray:
    """Draw n samples from vMF(mu, kappa); returns an (n, p) array.

    Deterministic given the seed.  Tangent-normal decomposition: sample the
    radial part w, pick a uniform direction q on the sphere orthogonal to
    e_1, assemble (w, sqrt(1-w^2) q) and reflect e_1 onto mu with a
    Householder map.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n!r}")
    p = params.p
    rng = np.random.default_rng(seed)
    w = _sample_radial(rng, float(params.kappa), p, n)

    q = rng.standard_normal((n, p - 1))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    samples = np.empty((n, p))
    samples[:, 0] = w
    samples[:, 1:] = np.sqrt(np.clip(1.0 - w * w, 0.0, None))[:, None] * q

    e1 = np.zeros(p)
    e1[0] = 1.0
    u = e1 - params.mu
    u_norm2 = float(u @ u)
    if u_norm2 > 1e-24:
        samples -= np.outer(samples @ u, u) * (2.0 / u_norm2)
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    return samples
