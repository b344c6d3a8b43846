"""Per-state M-step, kept as the oracle for the all-states `emission.m_step_state`.

This is the former per-state `m_step_state` of `shmm.emission`, with its
`_floor_covariance` and the former single-column `fit_vmf` of `shmm.vmf`,
verbatim: one call per state, each with its own N-row passes, its own
unit-norm check of the embeddings and one kappa solve.  `m_step_states`
is the loop `baum_welch` ran over the columns of gamma, with None where
the state is dead.  The (N, K) M-step must match it within 1e-12
relative, array by array.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from shmm.emission import (
    DEAD_STATE_WEIGHT,
    EmissionConfig,
    EmptyStateError,
    GaussianText,
    StateParams,
)
from shmm.vmf import EmptyInputError, ResultantStats, VmfParams, estimate_kappa


def fit_vmf(vectors: np.ndarray, weights: Sequence[float] | None = None) -> VmfParams:
    """Weighted maximum-likelihood vMF fit.

    mu is the normalized weighted resultant, kappa the Newton solution of
    A_p(kappa) = r_bar with r_bar = ||sum_i w_i m_i|| / sum_i w_i.  With
    unit weights this is the plain MLE; responsibilities act as fractional
    counts.

    Raises EmptyInputError when there is no data or no positive weight.
    A vanished resultant (||R|| < 1e-12 * total weight, e.g. perfectly
    antipodal data) has no direction, so mu = e_1; `estimate_kappa` gives
    it kappa = 0 with a NearUniformWarning.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise EmptyInputError("need a non-empty (N, p) array of unit vectors")
    n, p = vectors.shape
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,) or np.any(weights < 0.0):
        raise ValueError("weights must be a non-negative vector matching the data")
    total = float(weights.sum())
    if total <= 0.0:
        raise EmptyInputError("total weight must be positive")
    norms = np.linalg.norm(vectors, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"vector {bad} is not unit norm (||m|| = {float(norms[bad])!r})")

    resultant = weights @ vectors
    r_norm = float(np.linalg.norm(resultant))
    if r_norm < 1e-12 * total:
        mu = np.zeros(p)
        mu[0] = 1.0
    else:
        mu = resultant / r_norm
    estimate = estimate_kappa(ResultantStats(resultant=resultant, weight=total))
    return VmfParams(mu=mu, kappa=estimate.kappa, p=p)


def _floor_covariance(cov: np.ndarray, floor: float) -> np.ndarray:
    """Clip the eigenvalues of a symmetric 2x2 matrix at the variance floor."""
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] >= floor:
        return cov
    eigvals = np.maximum(eigvals, floor)
    return (eigvecs * eigvals) @ eigvecs.T


def m_step_state(
    times: np.ndarray,
    locs: np.ndarray,
    embeds: np.ndarray,
    gamma: np.ndarray,
    config: EmissionConfig,
) -> StateParams:
    """Responsibility-weighted maximum-likelihood update of one state.

    gamma are that state's responsibilities over the stacked records; the
    update is invariant to rescaling gamma by any positive constant.
    Degenerate spreads are clipped at the configured floors.  Raises
    EmptyStateError when the total responsibility is below
    DEAD_STATE_WEIGHT (the caller re-seeds such states).
    """
    gamma = np.asarray(gamma, dtype=float)
    total = float(gamma.sum())
    if total < DEAD_STATE_WEIGHT:
        raise EmptyStateError(f"state responsibility {total:.3g} is numerically zero")
    w = gamma / total

    mu_t = float(w @ times)
    var_t = float(w @ (times - mu_t) ** 2)
    sigma_t = max(math.sqrt(var_t), config.sigma_t_floor)

    mu_l = w @ locs
    centered = locs - mu_l
    cov_l = (centered * w[:, None]).T @ centered
    cov_l = _floor_covariance(cov_l, config.var_floor)

    text = None
    if config.text_model == "vmf":
        text = fit_vmf(embeds, gamma)
    elif config.text_model == "gaussian":
        mean = w @ embeds
        text = GaussianText(mean, np.maximum(w @ (embeds - mean) ** 2, config.var_floor))

    return StateParams(mu_t=mu_t, sigma_t=sigma_t, mu_l=mu_l, cov_l=cov_l, text=text)


def m_step_states(times, locs, embeds, gamma, config) -> list:
    """One `m_step_state` per column of an (N, K) gamma; None for a dead state."""
    states = []
    for j in range(gamma.shape[1]):
        try:
            states.append(m_step_state(times, locs, embeds, gamma[:, j], config))
        except EmptyStateError:
            states.append(None)
    return states
