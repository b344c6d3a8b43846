"""Reference forward-backward recursions, kept verbatim as oracles.

`fb_batch` and `e_step_by_length` are the recursion `shmm.hmm_core` ran
before its packed, time-major pass: one log-space pass per distinct trace
length, with `scipy.special.logsumexp`.

`packed_forward` and `packed_forward_backward` are the packed pass as it was before it
moved into one reused scratch block: fresh (n, K, K) temporaries each
step, and two exps per backward step (one for xi, one for beta).
"""

import numpy as np
from scipy.special import logsumexp

from shmm.emission import log_emission_matrix
from shmm.hmm_core import NonFiniteLikelihoodError, _Packing


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


def packed_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the slice max.

    An all -inf slice gives -inf; inf and NaN propagate.
    """
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis))
    return out + shift.squeeze(axis)


def packed_forward(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
             packing: _Packing) -> np.ndarray:
    """Log forward messages over (N, K) emission log-densities in packed order."""
    sizes, bounds = packing.sizes, packing.bounds
    alpha = np.empty_like(log_b)
    alpha[: sizes[0]] = log_pi + log_b[: sizes[0]]
    for t in range(1, len(sizes)):
        lo, hi, prev = bounds[t], bounds[t + 1], bounds[t - 1]
        alpha[lo:hi] = (
            packed_logsumexp(alpha[prev:prev + hi - lo, :, None] + log_a, axis=1) + log_b[lo:hi]
        )
    return alpha


def packed_forward_backward(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
                      packing: _Packing):
    """Forward-backward over every trace of a packed corpus at once.

    log_b is the (N, K) emission matrix in corpus row order.  Returns
    (gamma (N, K) in corpus row order, xi_sum (K, K) summed over traces and
    slots, loglik (B,) in corpus trace order).
    """
    sizes, bounds = packing.sizes, packing.bounds
    log_b = log_b[packing.rows]
    alpha = packed_forward(log_pi, log_a, log_b, packing)
    loglik = np.empty(sizes[0])
    loglik[packing.order] = packed_logsumexp(alpha[packing.last], axis=1)
    bad = np.flatnonzero(~np.isfinite(loglik))
    if bad.size:
        raise NonFiniteLikelihoodError(
            f"log-likelihood of trace {int(bad[0])} is not finite ({loglik[bad[0]]})"
        )

    ll_sorted = loglik[packing.order]
    beta = np.zeros_like(log_b)
    xi_sum = np.zeros_like(log_a)
    for t in range(len(sizes) - 2, -1, -1):
        lo, nxt, n = bounds[t], bounds[t + 1], sizes[t + 1]
        forward_msg = log_b[nxt:nxt + n] + beta[nxt:nxt + n]  # (n, K)
        to_next = log_a + forward_msg[:, None, :]  # (n, K, K)
        xi_log = alpha[lo:lo + n, :, None] + to_next - ll_sorted[:n, None, None]
        xi_sum += np.exp(xi_log).sum(axis=0)
        beta[lo:lo + n] = packed_logsumexp(to_next, axis=2)

    slot = np.arange(len(log_b)) - np.repeat(bounds[:-1], sizes)
    gamma = np.empty_like(log_b)
    gamma[packing.rows] = np.exp(alpha + beta - ll_sorted[slot, None])
    return gamma, xi_sum, loglik
