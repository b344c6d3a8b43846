"""Multi-modal emission model: densities of all states at once, and the M-step.

Each latent state emits a record's three modalities independently, so the
record log-density is the sum of the enabled per-modality log-densities:

* time of day: univariate Gaussian N(mu_t, sigma_t^2), seconds since
  midnight, no circular wraparound;
* location: bivariate Gaussian N(mu_l, cov_l);
* text embedding: vMF(mu, kappa) on the unit sphere (`VmfParams`), or
  per-coordinate independent Gaussians (`GaussianText`, the GHMM baseline).

Configuration toggles realize the baselines: location-only (HMM),
location+time (ST-HMM), all three with Gaussian text (GHMM), and the full
model with vMF text.

`log_emission_matrix` evaluates every state in one vectorized pass: the
per-state parameters are stacked into (K,)- and (K, p)-arrays, the time
and location terms broadcast records (N, 1) against states (K,), and the
vMF term is `vmf.vmf_log_density`, one (N, p) @ (p, K) product.
The Gaussian text term uses the expanded quadratic
sum_j x_j^2/v_j - 2 x_j m_j/v_j + m_j^2/v_j, i.e. two such products,
rather than the direct (x - m)^2/v, which would need an (N, K, p)
temporary.  Each term is added into the output with at most three (N, K)
temporaries, built in place with the association of the one-expression
form, so every cell has the bits that form gives.  `log_emission` is the
1 x 1 case of the same matrix.

The M-step, `m_step_state`, also fits every state at once: it reads the
(N, K) responsibilities in one pass, with the means as (K, N) products,
the second moments centered on each state's means a block of records at
a time, and every state's vMF text from one `vmf.fit_vmf` call.

A state holds the one text model its config names, or none.  This is the
one module that reads it: it also checks, re-seeds and serializes states,
draws records from them (`sample_emissions`) and names each state's text
direction (`text_direction`).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import stack_records
from .vmf import VmfParams, fit_vmf, sample_vmf, vmf_log_density

#: Lower bound on the time-of-day standard deviation, seconds.
SIGMA_T_FLOOR = 60.0

#: Lower bound on location / text-Gaussian variances (squared coordinate units).
VAR_FLOOR = 1e-6

#: Total responsibility below which a state counts as dead: `m_step_state`
#: gives None in its slot (EmptyStateError for a single state) and the EM
#: loop re-seeds the state.
DEAD_STATE_WEIGHT = 1e-8

#: Records per block of the M-step's centered second moments.
MOMENT_ROWS = 2048

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
    or "none".  The two switches must be booleans: a model file's "no" or
    0 is refused, not read as true or false.  Both floors must be real
    numbers, not booleans, finite and > 0: a NaN, zero or negative floor
    would switch the floor off.
    """

    use_time: bool = True
    use_location: bool = True
    text_model: str = "vmf"
    sigma_t_floor: float = SIGMA_T_FLOOR
    var_floor: float = VAR_FLOOR

    def __post_init__(self):
        for name in ("use_time", "use_location"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValueError(f"{name} must be true or false, got {value!r}")
        if self.text_model not in TEXT_MODELS:
            raise ValueError(f"text_model must be one of {TEXT_MODELS}, got {self.text_model!r}")
        if not (self.use_time or self.use_location or self.text_model != "none"):
            raise ValueError("at least one modality must be enabled")
        for name in ("sigma_t_floor", "var_floor"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
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


@dataclass(frozen=True)
class GaussianText:
    """Diagonal-Gaussian text parameters of one state (the GHMM baseline):
    the per-coordinate mean and variance of the embedding, float arrays."""

    mean: np.ndarray
    var: np.ndarray


@dataclass
class StateParams:
    """Emission parameters of one latent state.

    sigma_t is a standard deviation (seconds).  cov_l is 2x2 symmetric
    positive definite with eigenvalues >= the configured variance floor.
    text is the one text model config.text_model names (`check_states`):
    `VmfParams` for 'vmf', `GaussianText` for 'gaussian', None for 'none'.
    """

    mu_t: float
    sigma_t: float
    mu_l: np.ndarray
    cov_l: np.ndarray
    text: VmfParams | GaussianText | None = None

    def __post_init__(self):
        self.mu_l = np.asarray(self.mu_l, dtype=float)
        self.cov_l = np.asarray(self.cov_l, dtype=float)
        if self.sigma_t <= 0.0:
            raise ValueError("sigma_t must be positive")
        if self.mu_l.shape != (2,) or self.cov_l.shape != (2, 2):
            raise ValueError("mu_l must be a 2-vector and cov_l a 2x2 matrix")
        if abs(self.cov_l[0, 1] - self.cov_l[1, 0]) > 1e-12 * (1.0 + abs(self.cov_l[0, 1])):
            raise ValueError("cov_l must be symmetric")


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
        for name in ("mu_t", "sigma_t", "mu_l", "cov_l"):
            if not np.all(np.isfinite(getattr(s, name))):
                raise ValueError(f"state {j}: {name} must be finite")
        text = s.text
        if text_model == "vmf" and not (isinstance(text, VmfParams) and text.p == p):
            raise ValueError(f"state {j}: text_model 'vmf' needs vMF text parameters "
                             f"of dimension {p}")
        if text_model == "gaussian":
            gaussian = isinstance(text, GaussianText)
            if gaussian and not np.all(np.isfinite(text.mean)):
                raise ValueError(f"state {j}: text_mean must be finite")
            if not (gaussian and text.mean.shape == text.var.shape == (p,)
                    and np.all((text.var > 0.0) & (text.var < np.inf))):
                raise ValueError(f"state {j}: text_model 'gaussian' needs text_mean and "
                                 f"positive finite text_var of shape ({p},)")
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
    # Each step below is one operation of the one-expression form, in its
    # order; each branch frees its temporaries before the next one.
    if config.use_time:
        mu_t = np.array([s.mu_t for s in states])
        sigma_t = np.array([s.sigma_t for s in states])
        # ((-0.5 z) z - log sigma) - log(2 pi) / 2, z = (t - mu) / sigma
        z = times[:, None] - mu_t
        z /= sigma_t
        term = -0.5 * z
        term *= z
        term -= np.log(sigma_t)
        term -= 0.5 * _LOG_2PI
        out += term
        del z, term
    if config.use_location:
        mu_l = np.array([s.mu_l for s in states])
        cov_l = np.array([s.cov_l for s in states])
        det = check_positive_definite(cov_l)
        a, b, d = cov_l[:, 0, 0], cov_l[:, 0, 1], cov_l[:, 1, 1]
        dx = locs[:, 0:1] - mu_l[:, 0]
        dy = locs[:, 1:2] - mu_l[:, 1]
        # (-log(2 pi) - log(det) / 2) - quad / 2, with
        # quad = ((d dx) dx - ((2b) dx) dy + (a dy) dy) / det
        quad = d * dx
        quad *= dx
        dx *= 2.0 * b
        dx *= dy
        quad -= dx
        np.multiply(a, dy, out=dx)
        dx *= dy
        quad += dx
        quad /= det
        quad *= 0.5
        np.subtract(-_LOG_2PI - 0.5 * np.log(det), quad, out=quad)
        out += quad
        del dx, dy, quad
    if config.text_model == "vmf":
        out += vmf_log_density([s.text for s in states], embeds)
    elif config.text_model == "gaussian":
        mean = np.array([s.text.mean for s in states])
        var = np.array([s.text.var for s in states])
        # ((quad + sum log v) + p log(2 pi)) (-0.5), with
        # quad = ((x x) @ (1/v)' - 2 (x @ (m/v)')) + sum m m / v
        quad = (embeds * embeds) @ (1.0 / var).T
        cross = embeds @ (mean / var).T
        cross *= 2.0
        quad -= cross
        quad += (mean * mean / var).sum(axis=1)
        quad += np.log(var).sum(axis=1)
        quad += embeds.shape[1] * _LOG_2PI
        quad *= -0.5
        out += quad
        del cross, quad
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
    the vMF mean direction and concentration for 'vmf', the Gaussian text
    mean and None for 'gaussian', (None, None) for 'none'."""
    if config.text_model == "vmf":
        return state.text.mu, float(state.text.kappa)
    if config.text_model == "gaussian":
        return state.text.mean, None
    return None, None


def _floor_covariances(cov: np.ndarray, floor: float) -> np.ndarray:
    """Clip the eigenvalues of K stacked symmetric 2x2 matrices, (K, 2, 2),
    at the variance floor; a matrix already above it is returned as is."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    low = eigvals[:, 0] < floor
    if np.any(low):
        eigvals, eigvecs = np.maximum(eigvals[low], floor), eigvecs[low]
        cov = cov.copy()
        cov[low] = (eigvecs * eigvals[:, None, :]) @ eigvecs.transpose(0, 2, 1)
    return cov


def _centered_moments(gamma: np.ndarray, times: np.ndarray, locs: np.ndarray,
                      mu_t: np.ndarray, mu_l: np.ndarray) -> np.ndarray:
    """Second moments of every column of an (N, K) gamma, centered on that
    column's means mu_t (K,) and mu_l (2, K): the rows of the (4, K) result
    are the sums of gamma d d' for the time deviations, then for the
    location deviations xx, xy and yy.

    The records are taken MOMENT_ROWS at a time, so the deviations live in
    two (MOMENT_ROWS, K) buffers, never in (N, K) arrays.
    """
    sums = np.zeros((4, gamma.shape[1]))
    for lo in range(0, gamma.shape[0], MOMENT_ROWS):
        rows = slice(lo, lo + MOMENT_ROWS)
        g = gamma[rows]
        dx = times[rows, None] - mu_t
        sums[0] += np.einsum("nk,nk,nk->k", g, dx, dx)
        np.subtract(locs[rows, 0:1], mu_l[0], out=dx)
        dy = locs[rows, 1:2] - mu_l[1]
        sums[1] += np.einsum("nk,nk,nk->k", g, dx, dx)
        sums[2] += np.einsum("nk,nk,nk->k", g, dx, dy)
        sums[3] += np.einsum("nk,nk,nk->k", g, dy, dy)
        del dx, dy  # freed before the next block's are made
    return sums


def m_step_state(
    times: np.ndarray,
    locs: np.ndarray,
    embeds: np.ndarray,
    gamma: np.ndarray,
    config: EmissionConfig,
) -> StateParams | list[StateParams | None]:
    """Responsibility-weighted maximum-likelihood update of one state or of K.

    gamma of shape (N,) are one state's responsibilities over the stacked
    records, and give its `StateParams`; gamma of shape (N, K) give a list
    of K, one per column, from one pass over gamma.  The update is
    invariant to rescaling a column by any positive constant.  Degenerate
    spreads are clipped at the configured floors.  A column whose total
    responsibility is below DEAD_STATE_WEIGHT is a dead state (the caller
    re-seeds it): None in the list, EmptyStateError for an (N,) gamma.

    The means are (K, N) @ (N, ...) products.  The second moments are
    centered on each column's own means (`_centered_moments`), a block of
    records at a time: the raw-moment form E[x^2] - m^2 cancels on
    projected meters.  The vMF text of every state is one `fit_vmf` call;
    the Gaussian text variance is one (N, p) pass per state.
    """
    gamma = np.asarray(gamma, dtype=float)
    columns = gamma.reshape(gamma.shape[0], -1)
    totals = columns.sum(axis=0)
    live = totals >= DEAD_STATE_WEIGHT
    if gamma.ndim == 1 and not live[0]:
        raise EmptyStateError(f"state responsibility {totals[0]:.3g} is numerically zero")
    if not np.all(live):
        columns, totals = columns[:, live], totals[live]

    mu_t = (times @ columns) / totals
    mu_l = (locs.T @ columns) / totals  # (2, K)
    var_t, c_xx, c_xy, c_yy = _centered_moments(columns, times, locs, mu_t, mu_l) / totals
    sigma_t = np.maximum(np.sqrt(var_t), config.sigma_t_floor)
    cov_l = np.stack([c_xx, c_xy, c_xy, c_yy], axis=1).reshape(-1, 2, 2)
    cov_l = _floor_covariances(cov_l, config.var_floor)

    if config.text_model == "vmf":
        texts = fit_vmf(embeds, columns)
    elif config.text_model == "gaussian":
        means = (columns.T @ embeds) / totals[:, None]
        sq = np.empty_like(embeds)
        texts = []
        for j, mean in enumerate(means):
            np.subtract(embeds, mean, out=sq)
            sq *= sq
            # a contiguous copy of the column: a strided one slows the product
            var = (np.ascontiguousarray(columns[:, j]) @ sq) / totals[j]
            texts.append(GaussianText(mean, np.maximum(var, config.var_floor)))
    else:
        texts = [None] * totals.size

    states = [None] * live.size
    for j, slot in enumerate(np.flatnonzero(live)):
        states[slot] = StateParams(mu_t=float(mu_t[j]), sigma_t=float(sigma_t[j]),
                                   mu_l=mu_l[:, j].copy(), cov_l=cov_l[j], text=texts[j])
    return states[0] if gamma.ndim == 1 else states


def seed_state(time: float, loc: np.ndarray, embed: np.ndarray,
               config: EmissionConfig) -> StateParams:
    """A state centered on one record, to replace a dead state: its spreads
    are the floors, and its vMF text has concentration RESEED_KAPPA."""
    text = None
    if config.text_model == "vmf":
        text = VmfParams(mu=embed / np.linalg.norm(embed), kappa=RESEED_KAPPA, p=len(embed))
    elif config.text_model == "gaussian":
        text = GaussianText(embed.copy(), np.full(len(embed), config.var_floor))
    return StateParams(mu_t=float(time), sigma_t=config.sigma_t_floor, mu_l=loc.copy(),
                       cov_l=config.var_floor * np.eye(2), text=text)


def state_to_dict(state: StateParams) -> dict:
    """JSON-ready document of one state; floats keep full double precision.
    The keys of the text model the state does not hold are null."""
    text = state.text
    vmf, gaussian = isinstance(text, VmfParams), isinstance(text, GaussianText)
    return {
        "mu_t": float(state.mu_t),
        "sigma_t": float(state.sigma_t),
        "mu_l": state.mu_l.tolist(),
        "cov_l": state.cov_l.tolist(),
        "text": {"mu": text.mu.tolist(), "kappa": float(text.kappa)} if vmf else None,
        "text_mean": text.mean.tolist() if gaussian else None,
        "text_var": text.var.tolist() if gaussian else None,
    }


def state_from_dict(doc: dict, config: EmissionConfig, embedding_dim: int) -> StateParams:
    """The state a `state_to_dict` document describes, with the text of
    config.text_model only; a missing key raises KeyError."""
    if not isinstance(doc, dict):
        raise TypeError(f"a state must be a JSON object, got {json.dumps(doc)}")
    text, mean, var = None, doc.get("text_mean"), doc.get("text_var")
    if config.text_model == "vmf" and doc.get("text") is not None:
        text = VmfParams(
            mu=np.array(doc["text"]["mu"], dtype=float),
            kappa=float(doc["text"]["kappa"]),
            p=embedding_dim,
        )
    elif config.text_model == "gaussian" and mean is not None and var is not None:
        text = GaussianText(np.array(mean, dtype=float), np.array(var, dtype=float))
    return StateParams(mu_t=float(doc["mu_t"]), sigma_t=float(doc["sigma_t"]),
                       mu_l=np.array(doc["mu_l"], dtype=float),
                       cov_l=np.array(doc["cov_l"], dtype=float), text=text)
