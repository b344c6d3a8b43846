"""Former `shmm.synth` code, kept as oracles for what replaced it.

* The per-axis estimation drivers `estimation_vs_n`, `estimation_vs_kappa`
  and `estimation_vs_p`, verbatim: one copy of the same seed-and-mean loop
  per swept parameter.  `shmm.synth.estimation_error` must return exactly
  their rows.
* `sample_corpus` with its per-state emission loop inline, verbatim.  The
  current `sample_corpus`, which draws emissions through
  `shmm.emission.sample_emissions`, must return bitwise the same corpus.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from shmm.hmm_core import ShmmModel
from shmm.records import SECONDS_PER_DAY, SemanticRecord, Trace
from shmm.synth import _fit_errors
from shmm.vmf import sample_vmf


def sample_corpus(model: ShmmModel, n_traces: int, trace_len: int, seed: int) -> list[Trace]:
    """Simulate traces from a model (Markov chain + per-state emissions).

    Deterministic given the seed.  Absolute timestamps step by one hour so
    the generated traces survive any segmentation threshold >= 1 h.
    """
    rng = np.random.default_rng(seed)
    k = model.n_states
    n = n_traces * trace_len

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
    flat = paths.reshape(-1)

    times = np.empty(n)
    locs = np.empty((n, 2))
    embeds = np.empty((n, model.embedding_dim))
    for j in range(k):
        mask = flat == j
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        state = model.states[j]
        times[mask] = rng.normal(state.mu_t, state.sigma_t, size=cnt)
        chol = np.linalg.cholesky(state.cov_l)
        locs[mask] = state.mu_l + rng.standard_normal((cnt, 2)) @ chol.T
        embeds[mask] = sample_vmf(state.text, cnt, seed=int(rng.integers(2 ** 62)))
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


def estimation_vs_n(
    p: int = 100,
    kappa: float = 100.0,
    n_grid: Sequence[int] = (100, 1_000, 10_000, 100_000),
    n_seeds: int = 20,
    seed: int = 0,
):
    """Estimation error vs sample size; per-seed rows plus per-x means."""
    rows = []
    for n in n_grid:
        k_errs, m_errs = [], []
        for s in range(n_seeds):
            k_err, m_err = _fit_errors(p, kappa, int(n), seed + 1000 * s + int(n))
            rows.append((int(n), "kappa_rel_error", k_err))
            rows.append((int(n), "mu_cos_error", m_err))
            k_errs.append(k_err)
            m_errs.append(m_err)
        rows.append((int(n), "kappa_rel_error_mean", float(np.mean(k_errs))))
        rows.append((int(n), "mu_cos_error_mean", float(np.mean(m_errs))))
    return rows


def estimation_vs_kappa(
    p: int = 100,
    kappa_grid: Sequence[float] = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0),
    n: int = 100_000,
    n_seeds: int = 3,
    seed: int = 0,
):
    """Estimation error vs true concentration at fixed p and N."""
    rows = []
    for kappa in kappa_grid:
        k_errs, m_errs = [], []
        for s in range(n_seeds):
            k_err, m_err = _fit_errors(p, float(kappa), n, seed + 1000 * s + int(kappa))
            rows.append((float(kappa), "kappa_rel_error", k_err))
            rows.append((float(kappa), "mu_cos_error", m_err))
            k_errs.append(k_err)
            m_errs.append(m_err)
        rows.append((float(kappa), "kappa_rel_error_mean", float(np.mean(k_errs))))
        rows.append((float(kappa), "mu_cos_error_mean", float(np.mean(m_errs))))
    return rows


def estimation_vs_p(
    p_grid: Sequence[int] = (2, 10, 50, 100, 200),
    kappa: float = 100.0,
    n: int = 100_000,
    n_seeds: int = 3,
    seed: int = 0,
):
    """Estimation error vs dimension at fixed kappa and N."""
    rows = []
    for p in p_grid:
        k_errs, m_errs = [], []
        for s in range(n_seeds):
            k_err, m_err = _fit_errors(int(p), kappa, n, seed + 1000 * s + int(p))
            rows.append((int(p), "kappa_rel_error", k_err))
            rows.append((int(p), "mu_cos_error", m_err))
            k_errs.append(k_err)
            m_errs.append(m_err)
        rows.append((int(p), "kappa_rel_error_mean", float(np.mean(k_errs))))
        rows.append((int(p), "mu_cos_error_mean", float(np.mean(m_errs))))
    return rows
