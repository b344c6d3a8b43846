"""Per-state emission densities, kept as the oracle for the all-states pass.

These are the former per-state helpers of `shmm.emission`, verbatim but
for reading the Gaussian text from `state.text`: one state's log-density
over N records at a time.  `reference_log_emission_matrix`
stacks them state by state into the (N, K) matrix that
`shmm.emission.log_emission_matrix` computes in one vectorized pass.

`vectorized_log_emission_matrix` and `vectorized_vmf_log_density` are that
vectorized pass as it was before it built its terms in place: every term
from fresh (N, K) temporaries, in one expression.  The in-place pass must
give the same bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from shmm.emission import EmissionConfig, StateParams, check_positive_definite
from shmm.vmf import VmfParams, vmf_log_norm_const

_LOG_2PI = math.log(2.0 * math.pi)


def _log_normal(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * _LOG_2PI


def _log_bivariate_normal(locs: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    a, b, d = cov[0, 0], cov[0, 1], cov[1, 1]
    det = a * d - b * b
    if det <= 0.0:
        raise ValueError("cov_l is not positive definite")
    dx = locs[..., 0] - mu[0]
    dy = locs[..., 1] - mu[1]
    quad = (d * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / det
    return -_LOG_2PI - 0.5 * math.log(det) - 0.5 * quad


def _log_text_density(state: StateParams, config: EmissionConfig, embeds: np.ndarray) -> np.ndarray:
    if config.text_model == "vmf":
        params = state.text
        log_c = vmf_log_norm_const(params.p, float(params.kappa))
        return log_c + params.kappa * (embeds @ params.mu)
    # diagonal Gaussians over embedding coordinates
    mean, var = state.text.mean, state.text.var
    z2 = (embeds - mean) ** 2 / var
    return -0.5 * (z2 + np.log(var) + _LOG_2PI).sum(axis=-1)


def log_emission_vector(
    state: StateParams,
    config: EmissionConfig,
    times: np.ndarray,
    locs: np.ndarray,
    embeds: np.ndarray,
) -> np.ndarray:
    """Log emission density of one state over N stacked records."""
    out = np.zeros(np.shape(times))
    if config.use_time:
        out = out + _log_normal(np.asarray(times, dtype=float), state.mu_t, state.sigma_t)
    if config.use_location:
        out = out + _log_bivariate_normal(np.asarray(locs, dtype=float), state.mu_l, state.cov_l)
    if config.text_model != "none":
        out = out + _log_text_density(state, config, np.asarray(embeds, dtype=float))
    return out


def reference_log_emission_matrix(states, config, times, locs, embeds) -> np.ndarray:
    """(N, K) log emission densities, one `log_emission_vector` column per state."""
    return np.stack(
        [log_emission_vector(s, config, times, locs, embeds) for s in states], axis=-1
    )


def vectorized_log_emission_matrix(
    states: Sequence[StateParams],
    config: EmissionConfig,
    times: np.ndarray,
    locs: np.ndarray,
    embeds: np.ndarray,
) -> np.ndarray:
    """(N, K) matrix of log emission densities of N stacked records under K states.

    A density that underflows to zero (-inf, e.g. a record far from every
    state) is returned as is: the HMM handles it like a structural zero and
    names the trace whose likelihood it empties.  NaN or +inf raise, as
    does a location covariance that is not positive definite.
    """
    times, locs, embeds = (np.asarray(x, dtype=float) for x in (times, locs, embeds))
    out = np.zeros((times.shape[0], len(states)))
    if config.use_time:
        mu_t = np.array([s.mu_t for s in states])
        sigma_t = np.array([s.sigma_t for s in states])
        z = (times[:, None] - mu_t) / sigma_t
        out += -0.5 * z * z - np.log(sigma_t) - 0.5 * _LOG_2PI
    if config.use_location:
        mu_l = np.array([s.mu_l for s in states])
        cov_l = np.array([s.cov_l for s in states])
        det = check_positive_definite(cov_l)
        a, b, d = cov_l[:, 0, 0], cov_l[:, 0, 1], cov_l[:, 1, 1]
        dx = locs[:, 0:1] - mu_l[:, 0]
        dy = locs[:, 1:2] - mu_l[:, 1]
        quad = (d * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / det
        out += -_LOG_2PI - 0.5 * np.log(det) - 0.5 * quad
    if config.text_model == "vmf":
        out += vectorized_vmf_log_density([s.text for s in states], embeds)
    elif config.text_model == "gaussian":
        mean = np.array([s.text.mean for s in states])
        var = np.array([s.text.var for s in states])
        quad = (
            (embeds * embeds) @ (1.0 / var).T
            - 2.0 * (embeds @ (mean / var).T)
            + (mean * mean / var).sum(axis=1)
        )
        out += -0.5 * (quad + np.log(var).sum(axis=1) + embeds.shape[1] * _LOG_2PI)
    bad = np.argwhere(~(out < np.inf))  # NaN and +inf; -inf is a zero density
    if bad.size:
        i, k = bad[0]
        raise ValueError(
            f"non-finite emission log-density for record {i} under state {k}; "
            "check record fields and floors"
        )
    return out


def vectorized_vmf_log_density(params: Sequence[VmfParams], x: np.ndarray) -> np.ndarray:
    """(N, K) log densities log C_p(kappa_k) + kappa_k mu_k^T x_n of N unit
    vectors x (N, p) under K vMF distributions of the same dimension p.

    x is not checked for unit norm; the callers check their input."""
    mu = np.array([q.mu for q in params])
    kappa = np.array([float(q.kappa) for q in params])
    log_c = np.array([vmf_log_norm_const(q.p, float(q.kappa)) for q in params])
    return log_c + kappa * (x @ mu.T)
