"""Multi-modal emission model: densities of all states at once, and the M-step.

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

`log_emission_matrix` evaluates every state in one vectorized pass: the
per-state parameters are stacked into (K,)- and (K, p)-arrays, the time
and location terms broadcast records (N, 1) against states (K,), and the
vMF term is one (N, p) @ (p, K) product, log C_p(kappa) + kappa mu^T x.
The Gaussian text term uses the expanded quadratic
sum_j x_j^2/v_j - 2 x_j m_j/v_j + m_j^2/v_j, i.e. two such products,
rather than the direct (x - m)^2/v, which would need an (N, K, p)
temporary.  `log_emission` is the 1 x 1 case of the same matrix.

This is the one module that reads a state's text fields: it also checks,
re-seeds and serializes states, draws records from them
(`sample_emissions`) and names each state's text direction
(`text_direction`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import stack_records
from .vmf import VmfParams, fit_vmf, sample_vmf, vmf_log_norm_const

#: Lower bound on the time-of-day standard deviation, seconds.
SIGMA_T_FLOOR = 60.0

#: Lower bound on location / text-Gaussian variances (squared coordinate units).
VAR_FLOOR = 1e-6

#: Total responsibility below which a state counts as dead; `m_step_state`
#: raises EmptyStateError for it and the EM loop re-seeds the state.
DEAD_STATE_WEIGHT = 1e-8

#: Concentration assigned to a re-seeded state's text component.
RESEED_KAPPA = 1.0

TEXT_MODELS = ("vmf", "gaussian", "none")

_LOG_2PI = math.log(2.0 * math.pi)


class EmptyStateError(ValueError):
    """A state received (numerically) zero responsibility in the M-step."""


@dataclass(frozen=True)
class EmissionConfig:
    """Which modalities a model uses, plus the degeneracy floors.

    At least one modality must be enabled.  text_model is one of "vmf",
    "gaussian" (independent per-coordinate Gaussians over the embedding)
    or "none".  Both floors must be finite and > 0: a NaN, zero or
    negative floor would switch the floor off.
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
        for name in ("sigma_t_floor", "var_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

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


def check_positive_definite(cov_l: np.ndarray) -> np.ndarray:
    """Determinants of K stacked 2x2 location covariances, (K, 2, 2).

    Raises ValueError naming the first state whose covariance is not
    positive definite.
    """
    a, b, d = cov_l[:, 0, 0], cov_l[:, 0, 1], cov_l[:, 1, 1]
    det = a * d - b * b
    not_pd = np.flatnonzero(~((a > 0.0) & (det > 0.0)))
    if not_pd.size:
        raise ValueError(f"cov_l of state {not_pd[0]} is not positive definite")
    return det


def check_states(states: Sequence[StateParams], config: EmissionConfig,
                 embedding_dim: int) -> None:
    """Raise ValueError naming the first state with a non-finite parameter,
    without the text parameters config.text_model needs in dimension
    embedding_dim, or with a cov_l that is not positive definite."""
    p, text_model = embedding_dim, config.text_model
    for j, s in enumerate(states):
        for name in ("mu_t", "sigma_t", "mu_l", "cov_l", "text_mean"):
            value = getattr(s, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"state {j}: {name} must be finite")
        if text_model == "vmf" and (s.text is None or s.text.p != p):
            raise ValueError(f"state {j}: text_model 'vmf' needs vMF text parameters "
                             f"of dimension {p}")
        if text_model == "gaussian" and not (
            np.shape(s.text_mean) == (p,) and np.shape(s.text_var) == (p,)
            and np.all((s.text_var > 0.0) & (s.text_var < np.inf))
        ):
            raise ValueError(
                f"state {j}: text_model 'gaussian' needs text_mean and positive finite "
                f"text_var of shape ({p},)"
            )
    check_positive_definite(np.array([s.cov_l for s in states]))


def log_emission_matrix(
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
        mu = np.array([s.text.mu for s in states])
        kappa = np.array([float(s.text.kappa) for s in states])
        log_c = np.array([vmf_log_norm_const(s.text.p, float(s.text.kappa)) for s in states])
        out += log_c + kappa * (embeds @ mu.T)
    elif config.text_model == "gaussian":
        mean = np.array([s.text_mean for s in states])
        var = np.array([s.text_var for s in states])
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


def log_emission(state: StateParams, config: EmissionConfig, record) -> float:
    """Log emission density of a single record under one state."""
    return float(log_emission_matrix([state], config, *stack_records([record]))[0, 0])


def sample_emissions(states: Sequence[StateParams], config: EmissionConfig,
                     labels: np.ndarray, rng: np.random.Generator):
    """(times, locs, embeds) of one record drawn per entry of labels, the
    state that emits it.

    All three modalities are drawn whatever the config enables.  For each
    state j in turn that emits a record, rng draws the times (`normal`),
    then the locations (`standard_normal`), then the seed of the
    `sample_vmf` call (`integers`).  Only text_model 'vmf' can be sampled,
    because a record's embedding must be unit norm.
    """
    if config.text_model != "vmf":
        raise ValueError(f"records can only be sampled from text_model 'vmf' "
                         f"(unit-norm embeddings), got {config.text_model!r}")
    n = labels.shape[0]
    times = np.empty(n)
    locs = np.empty((n, 2))
    embeds = np.empty((n, states[0].text.p))
    for j, state in enumerate(states):
        mask = labels == j
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        times[mask] = rng.normal(state.mu_t, state.sigma_t, size=cnt)
        chol = np.linalg.cholesky(state.cov_l)
        locs[mask] = state.mu_l + rng.standard_normal((cnt, 2)) @ chol.T
        embeds[mask] = sample_vmf(state.text, cnt, seed=int(rng.integers(2 ** 62)))
    return times, locs, embeds


def text_direction(state: StateParams, config: EmissionConfig):
    """(direction, kappa) of a state's text component under config.text_model:
    the vMF mean direction and concentration for 'vmf', text_mean and None
    for 'gaussian', (None, None) for 'none'."""
    if config.text_model == "vmf":
        return state.text.mu, float(state.text.kappa)
    if config.text_model == "gaussian":
        return state.text_mean, None
    return None, None


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


def seed_state(time: float, loc: np.ndarray, embed: np.ndarray,
               config: EmissionConfig) -> StateParams:
    """A state centered on one record, to replace a dead state: its spreads
    are the floors, and its vMF text has concentration RESEED_KAPPA."""
    text = text_mean = text_var = None
    if config.text_model == "vmf":
        text = VmfParams(mu=embed / np.linalg.norm(embed), kappa=RESEED_KAPPA, p=len(embed))
    elif config.text_model == "gaussian":
        text_mean = embed.copy()
        text_var = np.full(len(embed), config.var_floor)
    return StateParams(mu_t=float(time), sigma_t=config.sigma_t_floor, mu_l=loc.copy(),
                       cov_l=config.var_floor * np.eye(2), text=text, text_mean=text_mean,
                       text_var=text_var)


def state_to_dict(state: StateParams) -> dict:
    """JSON-ready document of one state; floats keep full double precision."""
    text, gaussian = state.text, state.text_mean is not None
    return {
        "mu_t": float(state.mu_t),
        "sigma_t": float(state.sigma_t),
        "mu_l": state.mu_l.tolist(),
        "cov_l": state.cov_l.tolist(),
        "text": None if text is None else {"mu": text.mu.tolist(), "kappa": float(text.kappa)},
        "text_mean": state.text_mean.tolist() if gaussian else None,
        "text_var": state.text_var.tolist() if gaussian else None,
    }


def state_from_dict(doc: dict, embedding_dim: int) -> StateParams:
    """The state a `state_to_dict` document describes; a missing key raises KeyError."""
    if not isinstance(doc, dict):
        raise TypeError(f"a state must be a JSON object, got {json.dumps(doc)}")
    text = None
    if doc.get("text") is not None:
        text = VmfParams(
            mu=np.array(doc["text"]["mu"], dtype=float),
            kappa=float(doc["text"]["kappa"]),
            p=embedding_dim,
        )
    text_mean = None if doc.get("text_mean") is None else np.array(doc["text_mean"], dtype=float)
    text_var = None if doc.get("text_var") is None else np.array(doc["text_var"], dtype=float)
    return StateParams(mu_t=float(doc["mu_t"]), sigma_t=float(doc["sigma_t"]),
                       mu_l=np.array(doc["mu_l"], dtype=float),
                       cov_l=np.array(doc["cov_l"], dtype=float),
                       text=text, text_mean=text_mean, text_var=text_var)
