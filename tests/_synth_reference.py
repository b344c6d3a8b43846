"""Per-axis estimation drivers, kept as the oracle for the one grid driver.

These are the former `estimation_vs_n`, `estimation_vs_kappa` and
`estimation_vs_p` of `shmm.synth`, verbatim: one copy of the same
seed-and-mean loop per swept parameter.  `shmm.synth.estimation_error`
must return exactly their rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from shmm.synth import _fit_errors


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
