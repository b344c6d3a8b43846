"""Synthetic data generation and the convergence/estimation experiments.

Provides the planted-model corpus generator used by the recovery tests
plus the two experiment drivers behind the `synth` CLI subcommand.
`sample_corpus` runs the Markov chain and builds the records; the
emissions come from `emission.sample_emissions`, which samples text
model 'vmf' only (records need unit-norm embeddings).

* newton_convergence: per-iteration residual |A_p(kappa_n) - r_bar| of the
  concentration solve on one sampled dataset;
* estimation_error: relative error of kappa (and cosine error of the mean
  direction) over the sample-size, concentration or dimension grid of the
  estimation_vs_n / _kappa / _p experiments (`ESTIMATION_GRIDS`).

Both drivers return plot-ready (x, metric, value) rows; the CLI writes
them as CSV.  They raise ValueError for p < 2, and estimation_error for
kappa <= 0 or NaN, before the first draw; newton_convergence also raises
when the sample's r_bar needs kappa beyond KAPPA_MAX, as one sample does.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .emission import EmissionConfig, StateParams, sample_emissions
from .hmm_core import ShmmModel
from .records import SECONDS_PER_DAY, SemanticRecord, Trace
from .vmf import (KAPPA_MAX, VmfParams, _ratio_at_cap, fit_vmf, sample_vmf,
                  solve_concentration)


def orthonormal_directions(k: int, p: int, seed: int) -> np.ndarray:
    """k mutually orthogonal unit vectors in R^p (k <= p), seeded."""
    if k > p:
        raise ValueError("cannot make more orthonormal directions than dimensions")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, k)))
    return q.T.copy()


def planted_model(
    k: int,
    p: int,
    seed: int,
    kappas: Sequence[float] | None = None,
    loc_centers: np.ndarray | None = None,
    loc_cov: np.ndarray | None = None,
    time_means: Sequence[float] | None = None,
    time_sigma: float = 3600.0,
    self_prob: float = 0.4,
) -> ShmmModel:
    """A K-state generative model with controllable per-modality separation.

    Defaults: state locations on a small ring, time-of-day means spread
    across the working day, mutually orthogonal text directions, and a
    sticky Dirichlet-like transition matrix.
    """
    rng = np.random.default_rng(seed)
    if kappas is None:
        kappas = np.linspace(40.0, 120.0, k)
    if loc_centers is None:
        angles = 2.0 * math.pi * np.arange(k) / k
        loc_centers = 0.1 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if loc_cov is None:
        loc_cov = np.diag([4e-4, 4e-4])
    if time_means is None:
        time_means = np.linspace(8.0, 20.0, k) * 3600.0
    directions = orthonormal_directions(k, p, seed + 1)

    states = []
    for j in range(k):
        states.append(
            StateParams(
                mu_t=float(time_means[j]),
                sigma_t=time_sigma,
                mu_l=np.asarray(loc_centers[j], dtype=float),
                cov_l=np.asarray(loc_cov, dtype=float),
                text=VmfParams(mu=directions[j], kappa=float(kappas[j]), p=p),
            )
        )
    raw = rng.uniform(0.5, 1.5, size=(k, k))
    trans = raw / raw.sum(axis=1, keepdims=True) * (1.0 - self_prob)
    trans[np.arange(k), np.arange(k)] += self_prob
    trans /= trans.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.5, 1.5, size=k)
    pi /= pi.sum()
    return ShmmModel(
        n_states=k,
        pi=pi,
        trans=trans,
        states=states,
        config=EmissionConfig.shmm(),
        embedding_dim=p,
    )


def sample_corpus(model: ShmmModel, n_traces: int, trace_len: int, seed: int) -> list[Trace]:
    """Simulate traces from a model (Markov chain + per-state emissions).

    Deterministic given the seed.  The emissions come from
    `emission.sample_emissions`, so the model's text model must be 'vmf'
    (ValueError otherwise); times of day are clipped to [0, 1 day).
    Absolute timestamps step by one hour so the generated traces survive
    any segmentation threshold >= 1 h.
    """
    rng = np.random.default_rng(seed)
    k = model.n_states

    paths = np.empty((n_traces, trace_len), dtype=int)
    paths[:, 0] = rng.choice(k, size=n_traces, p=model.pi)
    for t in range(1, trace_len):
        prev = paths[:, t - 1]
        nxt = np.empty(n_traces, dtype=int)
        for j in range(k):
            mask = prev == j
            cnt = int(mask.sum())
            if cnt:
                nxt[mask] = rng.choice(k, size=cnt, p=model.trans[j])
        paths[:, t] = nxt

    times, locs, embeds = sample_emissions(model.states, model.config, paths.reshape(-1), rng)
    times = np.clip(times, 0.0, SECONDS_PER_DAY - 1e-6)

    traces = []
    idx = 0
    for i in range(n_traces):
        records = []
        for t in range(trace_len):
            records.append(
                SemanticRecord(
                    user_id=f"synth-{i}",
                    t_abs=float(t) * 3600.0,
                    t_day=float(times[idx]),
                    loc=locs[idx],
                    embedding=embeds[idx],
                )
            )
            idx += 1
        traces.append(Trace(records))
    return traces


# ---------------------------------------------------------------------------
# experiment drivers


def _check_dimension(p: int) -> None:
    if not p >= 2:
        raise ValueError(f"dimension p must be >= 2, got {p!r}")


def _sample_resultant(p: int, kappa: float, n: int, seed: int):
    mu = np.zeros(p)
    mu[0] = 1.0
    samples = sample_vmf(VmfParams(mu=mu, kappa=kappa, p=p), n, seed)
    return mu, samples


def newton_convergence(p: int = 100, kappa: float = 100.0, n: int = 100_000, seed: int = 0):
    """Residual per Newton iteration on one sampled dataset.

    Row 0 is the closed-form initializer; rows 1.. are Newton steps.  A
    sample whose r_bar needs kappa beyond KAPPA_MAX (n = 1 always does)
    raises ValueError, as does p < 2.
    """
    _check_dimension(p)
    _, samples = _sample_resultant(p, kappa, n, seed)
    r_bar = float(np.linalg.norm(samples.sum(axis=0))) / n
    if r_bar >= _ratio_at_cap(p):  # where fit_vmf caps kappa
        raise ValueError(f"the sample's r_bar={r_bar!r} needs kappa beyond {KAPPA_MAX:g}; "
                         "raise n or lower kappa")
    trace = solve_concentration(r_bar, p)
    return [(i, "residual", float(res)) for i, res in enumerate(trace.residuals)]


def _fit_errors(p: int, kappa: float, n: int, seed: int):
    mu, samples = _sample_resultant(p, kappa, n, seed)
    fitted = fit_vmf(samples)
    kappa_err = abs(fitted.kappa - kappa) / kappa
    mu_err = 1.0 - float(fitted.mu @ mu)
    return kappa_err, mu_err


ESTIMATION_GRIDS = {
    # experiment: (swept parameter, default grid, default seeds per grid point)
    "estimation_vs_n": ("n", (100, 1_000, 10_000, 100_000), 20),
    "estimation_vs_kappa": ("kappa", (1.0, 5.0, 10.0, 50.0, 100.0, 500.0), 3),
    "estimation_vs_p": ("p", (2, 10, 50, 100, 200), 3),
}


def estimation_error(experiment: str, grid: Sequence[float] | None = None, p: int = 100,
                     kappa: float = 100.0, n: int = 100_000, n_seeds: int | None = None,
                     seed: int = 0):
    """Estimation error vs the parameter an `ESTIMATION_GRIDS` experiment sweeps.

    The swept parameter (int for n and p, float for kappa) replaces its own
    argument; per-seed rows, seeded seed + 1000*s + int(x), precede the means.
    Every grid point is checked before the first draw: p < 2 and kappa <= 0
    (or NaN) raise ValueError.
    """
    axis, default_grid, default_seeds = ESTIMATION_GRIDS[experiment]
    if n_seeds is not None and n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds!r}")
    points = []
    for value in default_grid if grid is None else grid:
        params = {"p": p, "kappa": kappa, "n": n}
        params[axis] = float(value) if axis == "kappa" else int(value)
        _check_dimension(params["p"])
        if not params["kappa"] > 0.0:  # the relative error divides by kappa
            raise ValueError(f"kappa must be > 0, got {params['kappa']!r}")
        points.append(params)
    rows = []
    for params in points:
        x = params[axis]
        errs = [_fit_errors(**params, seed=seed + 1000 * s + int(x))
                for s in range(default_seeds if n_seeds is None else n_seeds)]
        for k_err, m_err in errs:
            rows += [(x, "kappa_rel_error", k_err), (x, "mu_cos_error", m_err)]
        rows.append((x, "kappa_rel_error_mean", float(np.mean([k for k, _ in errs]))))
        rows.append((x, "mu_cos_error_mean", float(np.mean([m for _, m in errs]))))
    return rows
