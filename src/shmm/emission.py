"""Per-state multi-modal emission model.

Each latent state emits a record's three modalities independently, so the
record log-density is the sum of the enabled per-modality log-densities:

* time of day: univariate Gaussian N(mu_t, sigma_t^2), seconds since
  midnight, no circular wraparound;
* location: bivariate Gaussian N(mu_l, cov_l);
* text embedding: vMF(mu, kappa) on the unit sphere, or per-coordinate
  independent Gaussians (the GHMM baseline), or nothing.

Configuration toggles realize the baselines: location-only (HMM),
location+time (ST-HMM), all three with Gaussian text (GHMM), and the full
model with vMF text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vmf import VmfParams, fit_vmf, vmf_log_norm_const

#: Lower bound on the time-of-day standard deviation, seconds.
SIGMA_T_FLOOR = 60.0

#: Lower bound on location / text-Gaussian variances (squared coordinate units).
VAR_FLOOR = 1e-6

TEXT_MODELS = ("vmf", "gaussian", "none")

_LOG_2PI = math.log(2.0 * math.pi)


class EmptyStateError(ValueError):
    """A state received (numerically) zero responsibility in the M-step."""


@dataclass(frozen=True)
class EmissionConfig:
    """Which modalities a model uses, plus the degeneracy floors.

    At least one modality must be enabled.  text_model is one of "vmf",
    "gaussian" (independent per-coordinate Gaussians over the embedding)
    or "none".
    """

    use_time: bool = True
    use_location: bool = True
    text_model: str = "vmf"
    sigma_t_floor: float = SIGMA_T_FLOOR
    var_floor: float = VAR_FLOOR

    def __post_init__(self):
        if self.text_model not in TEXT_MODELS:
            raise ValueError(f"text_model must be one of {TEXT_MODELS}, got {self.text_model!r}")
        if not (self.use_time or self.use_location or self.text_model != "none"):
            raise ValueError("at least one modality must be enabled")

    @classmethod
    def shmm(cls, **kw) -> "EmissionConfig":
        """Full model: time + location + vMF text."""
        return cls(use_time=True, use_location=True, text_model="vmf", **kw)

    @classmethod
    def ghmm(cls, **kw) -> "EmissionConfig":
        """Time + location + diagonal-Gaussian text baseline."""
        return cls(use_time=True, use_location=True, text_model="gaussian", **kw)

    @classmethod
    def st_hmm(cls, **kw) -> "EmissionConfig":
        """Spatiotemporal baseline: time + location, no text."""
        return cls(use_time=True, use_location=True, text_model="none", **kw)

    @classmethod
    def hmm(cls, **kw) -> "EmissionConfig":
        """Location-only baseline."""
        return cls(use_time=False, use_location=True, text_model="none", **kw)

    @classmethod
    def preset(cls, name: str, **kw) -> "EmissionConfig":
        presets = {"shmm": cls.shmm, "ghmm": cls.ghmm, "st-hmm": cls.st_hmm, "hmm": cls.hmm}
        try:
            return presets[name.lower()](**kw)
        except KeyError:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}") from None


@dataclass
class StateParams:
    """Emission parameters of one latent state.

    sigma_t is a standard deviation (seconds).  cov_l is 2x2 symmetric
    positive definite with eigenvalues >= the configured variance floor.
    text holds the vMF parameters; text_mean/text_var hold the
    diagonal-Gaussian parameters instead when the GHMM baseline is active.
    """

    mu_t: float
    sigma_t: float
    mu_l: np.ndarray
    cov_l: np.ndarray
    text: VmfParams | None = None
    text_mean: np.ndarray | None = None
    text_var: np.ndarray | None = None

    def __post_init__(self):
        self.mu_l = np.asarray(self.mu_l, dtype=float)
        self.cov_l = np.asarray(self.cov_l, dtype=float)
        if self.sigma_t <= 0.0:
            raise ValueError("sigma_t must be positive")
        if self.mu_l.shape != (2,) or self.cov_l.shape != (2, 2):
            raise ValueError("mu_l must be a 2-vector and cov_l a 2x2 matrix")
        if abs(self.cov_l[0, 1] - self.cov_l[1, 0]) > 1e-12 * (1.0 + abs(self.cov_l[0, 1])):
            raise ValueError("cov_l must be symmetric")
        if self.text_mean is not None:
            self.text_mean = np.asarray(self.text_mean, dtype=float)
            self.text_var = np.asarray(self.text_var, dtype=float)


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


def log_emission_matrix(
    states: Sequence[StateParams],
    config: EmissionConfig,
    times: np.ndarray,
    locs: np.ndarray,
    embeds: np.ndarray,
) -> np.ndarray:
    """(N, K) matrix of log emission densities for stacked records.

    A density that underflows to zero (-inf, e.g. a record far from every
    state) is returned as is: the HMM handles it like a structural zero and
    names the trace whose likelihood it empties.  NaN or +inf raise.
    """
    cols = [log_emission_vector(s, config, times, locs, embeds) for s in states]
    out = np.stack(cols, axis=-1)
    if not np.all(out < np.inf):  # false for NaN and +inf
        raise ValueError("non-finite emission log-density; check record fields and floors")
    return out


def log_emission(state: StateParams, config: EmissionConfig, record) -> float:
    """Log emission density of a single record under one state."""
    value = log_emission_vector(
        state,
        config,
        np.asarray([record.t_day], dtype=float),
        record.loc[None, :],
        record.embedding[None, :],
    )[0]
    if not value < math.inf:  # false for NaN and +inf; -inf is a zero density
        raise ValueError("non-finite emission log-density; check record fields and floors")
    return float(value)


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
    EmptyStateError when the total responsibility is below 1e-8 (the
    caller re-seeds such states).
    """
    gamma = np.asarray(gamma, dtype=float)
    total = float(gamma.sum())
    if total < 1e-8:
        raise EmptyStateError(f"state responsibility {total:.3g} is numerically zero")
    w = gamma / total

    mu_t = float(w @ times)
    var_t = float(w @ (times - mu_t) ** 2)
    sigma_t = max(math.sqrt(var_t), config.sigma_t_floor)

    mu_l = w @ locs
    centered = locs - mu_l
    cov_l = (centered * w[:, None]).T @ centered
    cov_l = _floor_covariance(cov_l, config.var_floor)

    text = text_mean = text_var = None
    if config.text_model == "vmf":
        text = fit_vmf(embeds, gamma)
    elif config.text_model == "gaussian":
        text_mean = w @ embeds
        text_var = np.maximum(w @ (embeds - text_mean) ** 2, config.var_floor)

    return StateParams(
        mu_t=mu_t,
        sigma_t=sigma_t,
        mu_l=mu_l,
        cov_l=cov_l,
        text=text,
        text_mean=text_mean,
        text_var=text_var,
    )
