"""Reference forward-backward: one log-space pass per distinct trace length.

This is the recursion `shmm.hmm_core` ran before its packed, time-major
pass, kept verbatim as an independent oracle for it.  It uses
`scipy.special.logsumexp` and batches only traces of equal length.
"""

import numpy as np
from scipy.special import logsumexp

from shmm.emission import log_emission_matrix
from shmm.hmm_core import NonFiniteLikelihoodError


def fb_batch(log_pi, log_a, log_b):
    """Forward-backward over a (B, R, K) block of emission log-densities.

    Returns (gamma (B,R,K), xi_sum (K,K) summed over batch and slots,
    loglik (B,)).
    """
    n_batch, n_steps, k = log_b.shape
    alpha = np.empty_like(log_b)
    alpha[:, 0] = log_pi[None, :] + log_b[:, 0]
    for t in range(1, n_steps):
        alpha[:, t] = logsumexp(alpha[:, t - 1][:, :, None] + log_a[None], axis=1) + log_b[:, t]
    loglik = logsumexp(alpha[:, -1], axis=1)
    if not np.all(np.isfinite(loglik)):
        raise NonFiniteLikelihoodError("trace log-likelihood is not finite")

    beta = np.zeros_like(log_b)
    xi_sum = np.zeros((k, k))
    for t in range(n_steps - 2, -1, -1):
        forward_msg = log_b[:, t + 1] + beta[:, t + 1]  # (B, K)
        xi_log = (
            alpha[:, t][:, :, None]
            + log_a[None]
            + forward_msg[:, None, :]
            - loglik[:, None, None]
        )
        xi_sum += np.exp(xi_log).sum(axis=0)
        beta[:, t] = logsumexp(log_a[None] + forward_msg[:, None, :], axis=2)

    gamma = np.exp(alpha + beta - loglik[:, None, None])
    return gamma, xi_sum, loglik


def e_step_by_length(model, corpus):
    """Per-length-group E-step over a corpus.

    Returns (gamma (N, K) in corpus row order, xi_sum (K, K), gamma0 (K,),
    loglik (B,) in corpus trace order).
    """
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    times = np.concatenate([t.times for t in corpus])
    locs = np.concatenate([t.locs for t in corpus])
    embeds = np.concatenate([t.embeddings for t in corpus])
    log_b_all = log_emission_matrix(model.states, model.config, times, locs, embeds)

    offsets = np.cumsum([0] + [len(t) for t in corpus])
    by_length = {}
    for i, trace in enumerate(corpus):
        by_length.setdefault(len(trace), []).append(i)

    k = model.n_states
    gamma_all = np.empty((len(times), k))
    xi_sum = np.zeros((k, k))
    gamma0 = np.zeros(k)
    loglik = np.empty(len(corpus))
    for length in sorted(by_length):
        idx = np.array(by_length[length], dtype=int)
        rows = np.array([np.arange(offsets[i], offsets[i] + length) for i in idx], dtype=int)
        gamma, xi, ll = fb_batch(log_pi, log_a, log_b_all[rows])
        gamma_all[rows.reshape(-1)] = gamma.reshape(-1, k)
        xi_sum += xi
        gamma0 += gamma[:, 0, :].sum(axis=0)
        loglik[idx] = ll
    return gamma_all, xi_sum, gamma0, loglik
