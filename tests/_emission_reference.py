"""Per-state emission densities, kept as the oracle for the all-states pass.

These are the former per-state helpers of `shmm.emission`, verbatim: one
state's log-density over N records at a time.  `reference_log_emission_matrix`
stacks them state by state into the (N, K) matrix that
`shmm.emission.log_emission_matrix` computes in one vectorized pass.
"""

from __future__ import annotations

import math

import numpy as np

from shmm.emission import EmissionConfig, StateParams
from shmm.vmf import vmf_log_norm_const

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
    mean, var = state.text_mean, state.text_var
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
