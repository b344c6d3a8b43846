"""Hidden Markov machinery over multi-modal emissions.

Log-space forward-backward (scaling by log-sum-exp, never linear-space
probabilities: emission log-densities here can span hundreds of nats),
Baum-Welch EM over multi-sequence corpora, Viterbi decoding, and
one-step-ahead scoring of candidate next records.

There is one forward recursion, run over a packed corpus.  Traces are
sorted by length, longest first (ties keep corpus order), and laid out
time-major: step t holds the t-th record of every trace still running,
and those are always the first few traces of the sorted order.  So the
whole E-step is one vectorized pass of max-length steps, each on a
contiguous slice, whatever the mix of trace lengths.  A single trace (as
in `forward_backward` and the prefix forward behind `score_next`) is a
packed corpus of one.  The packing and every summation order are fixed
by the input, so identical inputs always produce identical results.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .emission import (
    EmissionConfig,
    EmptyStateError,
    StateParams,
    log_emission_matrix,
    m_step_state,
)
from .records import Trace, stack_records
from .vmf import VmfParams

#: Additive probability floor applied to pi and every transition row each
#: M-step (then renormalized); prevents log(0) on unseen transitions.
PROB_SMOOTHING = 1e-6

#: Total responsibility below which a state counts as dead and is re-seeded.
DEAD_STATE_WEIGHT = 1e-8

#: Concentration assigned to a re-seeded state's text component.
RESEED_KAPPA = 1.0

#: Relative fall in corpus log-likelihood between EM iterations beyond which
#: `baum_welch` logs a warning (smoothing may cost less than this).
LOGLIK_DECREASE_TOL = 1e-8

logger = logging.getLogger(__name__)

MODEL_FORMAT = "shmm-model"
MODEL_FORMAT_VERSION = 1


class DimensionMismatchError(ValueError):
    """Trace/record dimensions do not match the model."""


class NonFiniteLikelihoodError(RuntimeError):
    """A trace's likelihood is zero, NaN or infinite under the model."""


class EmptyCorpusError(ValueError):
    """No traces supplied."""


@dataclass
class ShmmModel:
    """A K-state spherical HMM: initial distribution, transitions, emissions."""

    n_states: int
    pi: np.ndarray
    trans: np.ndarray
    states: list
    config: EmissionConfig
    embedding_dim: int

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        k = self.n_states
        if k < 1:
            raise ValueError("n_states must be >= 1")
        if self.pi.shape != (k,) or self.trans.shape != (k, k):
            raise ValueError("pi must be (K,) and trans (K, K)")
        if len(self.states) != k:
            raise ValueError("need exactly K per-state parameter sets")
        if np.any(self.pi < 0.0) or np.any(self.trans < 0.0):
            raise ValueError("probabilities must be non-negative")
        if abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must sum to 1")
        if np.max(np.abs(self.trans.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("every transition row must sum to 1")


@dataclass
class SufficientStats:
    """E-step quantities for one trace.

    gamma[i, z] is the posterior responsibility of state z for record i;
    xi_sum[z, z'] the expected transition counts summed over slots.  The
    remaining fields are responsibility-weighted moment accumulators,
    sufficient for the Gaussian/vMF M-step.
    """

    gamma: np.ndarray
    xi_sum: np.ndarray
    weight: np.ndarray = None
    time_sum: np.ndarray = None
    time_sq_sum: np.ndarray = None
    loc_sum: np.ndarray = None
    loc_outer_sum: np.ndarray = None
    emb_sum: np.ndarray = None


@dataclass(frozen=True)
class KMeansInit:
    """Initialize states from k-means clusters of record locations."""

    seed: int = 0
    n_iter: int = 100


@dataclass(frozen=True)
class StopCriteria:
    rel_tol: float = 1e-6
    max_iters: int = 200


@dataclass(frozen=True)
class EMIteration:
    loglik: float
    seconds: float


# ---------------------------------------------------------------------------
# corpus bundling and the packed forward-backward core


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the slice max.

    An all -inf slice gives -inf; inf and NaN propagate.
    """
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis))
    return out + shift.squeeze(axis)


@dataclass(frozen=True)
class _Packing:
    """Time-major layout of a corpus of traces, longest trace first.

    order[j] is the corpus index of the j-th longest trace (ties keep corpus
    order).  sizes[t] traces are still running at step t; they are always
    the first sizes[t] in that order, so step t occupies the contiguous
    packed slots bounds[t]:bounds[t+1].  rows[s] is the flat record row
    (corpus order) behind packed slot s, and last[j] the packed slot of the
    j-th longest trace's final record.
    """

    order: np.ndarray
    sizes: list
    bounds: list
    rows: np.ndarray
    last: np.ndarray


def _pack(lengths: Sequence[int]) -> _Packing:
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    n_steps = int(lengths.max())
    sizes = lengths.size - np.cumsum(np.bincount(lengths, minlength=n_steps + 1))[:n_steps]
    rows = np.concatenate([starts[:n] + t for t, n in enumerate(sizes)])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    last = bounds[lengths[order] - 1] + np.arange(lengths.size)
    return _Packing(order, sizes.tolist(), bounds.tolist(), rows, last)


def _forward(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
             packing: _Packing) -> np.ndarray:
    """Log forward messages over (N, K) emission log-densities in packed order."""
    sizes, bounds = packing.sizes, packing.bounds
    alpha = np.empty_like(log_b)
    alpha[: sizes[0]] = log_pi + log_b[: sizes[0]]
    for t in range(1, len(sizes)):
        lo, hi, prev = bounds[t], bounds[t + 1], bounds[t - 1]
        alpha[lo:hi] = (
            _logsumexp(alpha[prev:prev + hi - lo, :, None] + log_a, axis=1) + log_b[lo:hi]
        )
    return alpha


def _forward_backward(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
                      packing: _Packing):
    """Forward-backward over every trace of a packed corpus at once.

    log_b is the (N, K) emission matrix in corpus row order.  Returns
    (gamma (N, K) in corpus row order, xi_sum (K, K) summed over traces and
    slots, loglik (B,) in corpus trace order).
    """
    sizes, bounds = packing.sizes, packing.bounds
    log_b = log_b[packing.rows]
    alpha = _forward(log_pi, log_a, log_b, packing)
    loglik = np.empty(sizes[0])
    loglik[packing.order] = _logsumexp(alpha[packing.last], axis=1)
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
        beta[lo:lo + n] = _logsumexp(to_next, axis=2)

    slot = np.arange(len(log_b)) - np.repeat(bounds[:-1], sizes)
    gamma = np.empty_like(log_b)
    gamma[packing.rows] = np.exp(alpha + beta - ll_sorted[slot, None])
    return gamma, xi_sum, loglik


@dataclass
class _CorpusBundle:
    """A corpus as flat (N, ...) record arrays in corpus order, plus the
    time-major packing the forward-backward pass walks."""

    times: np.ndarray
    locs: np.ndarray
    embeds: np.ndarray
    packing: _Packing


def _bundle_corpus(corpus: Sequence[Trace], embedding_dim: int) -> _CorpusBundle:
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus contains no traces")
    for trace in corpus:
        if len(trace) == 0:
            raise ValueError("corpus contains an empty trace")
        if trace.embeddings.shape[1] != embedding_dim:
            raise DimensionMismatchError(
                f"trace embedding dim {trace.embeddings.shape[1]} != model {embedding_dim}"
            )
    times = np.concatenate([t.times for t in corpus])
    locs = np.concatenate([t.locs for t in corpus])
    embeds = np.concatenate([t.embeddings for t in corpus])
    packing = _pack([len(t) for t in corpus])
    return _CorpusBundle(times, locs, embeds, packing)


def _check_trace(model: ShmmModel, trace: Trace) -> None:
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if trace.embeddings.shape[1] != model.embedding_dim:
        raise DimensionMismatchError(
            f"trace embedding dim {trace.embeddings.shape[1]} != model {model.embedding_dim}"
        )


def _log_probs(model: ShmmModel):
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.trans)


def forward_backward(model: ShmmModel, trace: Trace):
    """E-step statistics and log-likelihood of one trace.

    Returns (SufficientStats, loglik) with loglik = log p(trace | model).
    """
    _check_trace(model, trace)
    log_pi, log_a = _log_probs(model)
    log_b = log_emission_matrix(
        model.states, model.config, trace.times, trace.locs, trace.embeddings
    )
    gamma, xi_sum, loglik = _forward_backward(log_pi, log_a, log_b, _pack([len(trace)]))
    weight = gamma.sum(axis=0)
    stats = SufficientStats(
        gamma=gamma,
        xi_sum=xi_sum,
        weight=weight,
        time_sum=gamma.T @ trace.times,
        time_sq_sum=gamma.T @ (trace.times ** 2),
        loc_sum=gamma.T @ trace.locs,
        loc_outer_sum=np.einsum("ik,ia,ib->kab", gamma, trace.locs, trace.locs),
        emb_sum=gamma.T @ trace.embeddings,
    )
    return stats, float(loglik[0])


def _e_step(model: ShmmModel, bundle: _CorpusBundle):
    log_pi, log_a = _log_probs(model)
    log_b_all = log_emission_matrix(
        model.states, model.config, bundle.times, bundle.locs, bundle.embeds
    )
    gamma_all, xi_sum, loglik = _forward_backward(log_pi, log_a, log_b_all, bundle.packing)
    first_rows = bundle.packing.rows[: bundle.packing.sizes[0]]
    gamma0 = gamma_all[first_rows].sum(axis=0)
    return gamma_all, xi_sum, gamma0, float(loglik.sum()), log_b_all


def _smooth(raw: np.ndarray) -> np.ndarray:
    total = raw.sum()
    probs = raw / total if total > 0.0 else np.full(raw.shape, 1.0 / raw.shape[0])
    probs = probs + PROB_SMOOTHING
    return probs / probs.sum()


def _reseed_state(bundle: _CorpusBundle, log_b_all: np.ndarray, config: EmissionConfig,
                  embedding_dim: int) -> StateParams:
    """Replacement parameters for a dead state, centered on the record the
    current model explains worst."""
    k = log_b_all.shape[1]
    score = _logsumexp(log_b_all, axis=1) - math.log(k)
    worst = int(np.argmin(score))
    text = text_mean = text_var = None
    if config.text_model == "vmf":
        mu = bundle.embeds[worst]
        text = VmfParams(mu=mu / np.linalg.norm(mu), kappa=RESEED_KAPPA, p=embedding_dim)
    elif config.text_model == "gaussian":
        text_mean = bundle.embeds[worst].copy()
        text_var = np.full(embedding_dim, config.var_floor)
    return StateParams(
        mu_t=float(bundle.times[worst]),
        sigma_t=config.sigma_t_floor,
        mu_l=bundle.locs[worst].copy(),
        cov_l=config.var_floor * np.eye(2),
        text=text,
        text_mean=text_mean,
        text_var=text_var,
    )


# ---------------------------------------------------------------------------
# initialization


def _kmeans_locations(locs: np.ndarray, k: int, seed: int, n_iter: int) -> np.ndarray:
    """Deterministic k-means (k-means++ seeding) on record locations."""
    n = locs.shape[0]
    if n < k:
        raise ValueError(f"cannot initialize {k} states from {n} records")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, 2))
    centers[0] = locs[rng.integers(n)]
    d2 = ((locs - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            centers[j] = locs[rng.choice(n, p=probs)]
        else:
            centers[j] = locs[rng.integers(n)]
        d2 = np.minimum(d2, ((locs - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(n_iter):
        dists = ((locs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        # keep every cluster populated: steal the records the assignment
        # explains worst
        own = dists[np.arange(n), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                candidates = np.where(np.bincount(new_labels, minlength=k)[new_labels] > 1)[0]
                if candidates.size == 0:
                    candidates = np.arange(n)
                steal = candidates[np.argmax(own[candidates])]
                new_labels[steal] = j
                own[steal] = 0.0
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for j in range(k):
            centers[j] = locs[labels == j].mean(axis=0)
    return labels


def _init_from_kmeans(corpus: Sequence[Trace], bundle: _CorpusBundle, k: int,
                      config: EmissionConfig, init: KMeansInit) -> ShmmModel:
    labels = _kmeans_locations(bundle.locs, k, init.seed, init.n_iter)
    states = []
    for j in range(k):
        gamma = (labels == j).astype(float)
        states.append(m_step_state(bundle.times, bundle.locs, bundle.embeds, gamma, config))

    # smoothed empirical counts of cluster labels along traces
    pi_counts = np.full(k, 0.1)
    trans_counts = np.full((k, k), 0.1)
    pos = 0
    for trace in corpus:
        seq = labels[pos:pos + len(trace)]
        pos += len(trace)
        pi_counts[seq[0]] += 1.0
        np.add.at(trans_counts, (seq[:-1], seq[1:]), 1.0)
    pi = pi_counts / pi_counts.sum()
    trans = trans_counts / trans_counts.sum(axis=1, keepdims=True)
    return ShmmModel(
        n_states=k,
        pi=pi,
        trans=trans,
        states=states,
        config=config,
        embedding_dim=bundle.embeds.shape[1],
    )


# ---------------------------------------------------------------------------
# Baum-Welch


def baum_welch(
    corpus: Sequence[Trace],
    k: int,
    config: EmissionConfig,
    init: KMeansInit | ShmmModel = KMeansInit(),
    stop: StopCriteria = StopCriteria(),
):
    """Fit a K-state model to a corpus of traces by EM.

    Returns (model, history) where history[i] carries the corpus
    log-likelihood under the parameters entering iteration i (and the
    iteration's wall-clock seconds).  The log-likelihood sequence is
    non-decreasing up to tiny smoothing-induced slack; iteration stops at
    relative improvement < stop.rel_tol or at stop.max_iters.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus contains no traces")
    if k < 1:
        raise ValueError("k must be >= 1")
    if stop.max_iters < 1 or stop.rel_tol < 0.0:
        raise ValueError("need max_iters >= 1 and rel_tol >= 0")
    embedding_dim = corpus[0].embeddings.shape[1]
    bundle = _bundle_corpus(corpus, embedding_dim)

    if isinstance(init, ShmmModel):
        if init.n_states != k:
            raise ValueError("explicit initial model must have n_states == k")
        model = init
    else:
        model = _init_from_kmeans(corpus, bundle, k, config, init)

    history: list[EMIteration] = []
    prev_loglik = None
    for _ in range(stop.max_iters):
        started = time.perf_counter()
        gamma_all, xi_sum, gamma0, loglik, log_b_all = _e_step(model, bundle)

        states = []
        for j in range(k):
            try:
                states.append(
                    m_step_state(bundle.times, bundle.locs, bundle.embeds, gamma_all[:, j], config)
                )
            except EmptyStateError:
                states.append(_reseed_state(bundle, log_b_all, config, embedding_dim))
        pi = _smooth(gamma0)
        trans = np.vstack([_smooth(xi_sum[j]) for j in range(k)])
        model = ShmmModel(
            n_states=k,
            pi=pi,
            trans=trans,
            states=states,
            config=config,
            embedding_dim=embedding_dim,
        )

        history.append(EMIteration(loglik=loglik, seconds=time.perf_counter() - started))
        if prev_loglik is not None:
            if loglik < prev_loglik - LOGLIK_DECREASE_TOL * abs(prev_loglik):
                logger.warning(
                    "EM log-likelihood fell at iteration %d: %.17g -> %.17g",
                    len(history) - 1, prev_loglik, loglik,
                )
            if abs(loglik - prev_loglik) < stop.rel_tol * abs(prev_loglik):
                break
        prev_loglik = loglik
    return model, history


# ---------------------------------------------------------------------------
# decoding and prediction


def viterbi(model: ShmmModel, trace: Trace) -> np.ndarray:
    """Most likely state path (argmax joint probability; ties -> lowest index)."""
    _check_trace(model, trace)
    log_pi, log_a = _log_probs(model)
    log_b = log_emission_matrix(
        model.states, model.config, trace.times, trace.locs, trace.embeddings
    )
    n_steps, k = log_b.shape
    delta = log_pi + log_b[0]
    back = np.zeros((n_steps, k), dtype=int)
    for t in range(1, n_steps):
        scores = delta[:, None] + log_a
        back[t] = scores.argmax(axis=0)
        delta = scores[back[t], np.arange(k)] + log_b[t]
    if not np.isfinite(delta.max()):
        raise NonFiniteLikelihoodError("trace has no path of finite log-probability")
    path = np.zeros(n_steps, dtype=int)
    path[-1] = int(delta.argmax())
    for t in range(n_steps - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def score_next(model: ShmmModel, prefix: Trace, candidates: Sequence, k_top: int):
    """Rank candidate next records by one-step-ahead joint log score.

    score(c) = log sum_z alpha_{R-1}(z) sum_z' A(z, z') exp(log_emission(z', c)),
    computed in log space.  Returns the top k_top candidates as
    (candidate_index, score) pairs, ranked descending; ties keep input
    order.
    """
    if len(prefix) < 1:
        raise ValueError("prefix must contain at least one record")
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    _check_trace(model, prefix)
    if candidates[0].embedding.shape[0] != model.embedding_dim:
        raise DimensionMismatchError("candidate embedding dimension does not match model")
    log_pi, log_a = _log_probs(model)
    log_b = log_emission_matrix(
        model.states, model.config, prefix.times, prefix.locs, prefix.embeddings
    )
    alpha = _forward(log_pi, log_a, log_b, _pack([len(prefix)]))[-1]
    if not np.isfinite(alpha.max()):
        raise NonFiniteLikelihoodError("prefix log-likelihood is not finite")
    log_pred = _logsumexp(alpha[:, None] + log_a, axis=0)
    times, locs, embeds = stack_records(candidates)
    log_b = log_emission_matrix(model.states, model.config, times, locs, embeds)
    scores = _logsumexp(log_pred[None, :] + log_b, axis=1)
    order = np.argsort(-scores, kind="stable")[: int(k_top)]
    return [(int(i), float(scores[i])) for i in order]


# ---------------------------------------------------------------------------
# serialization


def _state_to_dict(state: StateParams) -> dict:
    doc = {
        "mu_t": float(state.mu_t),
        "sigma_t": float(state.sigma_t),
        "mu_l": [float(x) for x in state.mu_l],
        "cov_l": [[float(x) for x in row] for row in state.cov_l],
        "text": None,
        "text_mean": None,
        "text_var": None,
    }
    if state.text is not None:
        doc["text"] = {"mu": [float(x) for x in state.text.mu], "kappa": float(state.text.kappa)}
    if state.text_mean is not None:
        doc["text_mean"] = [float(x) for x in state.text_mean]
        doc["text_var"] = [float(x) for x in state.text_var]
    return doc


def _state_from_dict(doc: dict, embedding_dim: int) -> StateParams:
    text = None
    if doc.get("text") is not None:
        text = VmfParams(
            mu=np.array(doc["text"]["mu"], dtype=float),
            kappa=float(doc["text"]["kappa"]),
            p=embedding_dim,
        )
    text_mean = None if doc.get("text_mean") is None else np.array(doc["text_mean"], dtype=float)
    text_var = None if doc.get("text_var") is None else np.array(doc["text_var"], dtype=float)
    return StateParams(
        mu_t=float(doc["mu_t"]),
        sigma_t=float(doc["sigma_t"]),
        mu_l=np.array(doc["mu_l"], dtype=float),
        cov_l=np.array(doc["cov_l"], dtype=float),
        text=text,
        text_mean=text_mean,
        text_var=text_var,
    )


def model_to_dict(model: ShmmModel) -> dict:
    """Versioned JSON-ready document; floats keep full double precision."""
    cfg = model.config
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "n_states": model.n_states,
        "embedding_dim": model.embedding_dim,
        "config": {
            "use_time": cfg.use_time,
            "use_location": cfg.use_location,
            "text_model": cfg.text_model,
            "sigma_t_floor": cfg.sigma_t_floor,
            "var_floor": cfg.var_floor,
        },
        "pi": [float(x) for x in model.pi],
        "trans": [[float(x) for x in row] for row in model.trans],
        "states": [_state_to_dict(s) for s in model.states],
    }


def model_from_dict(doc: dict) -> ShmmModel:
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    config = EmissionConfig(**doc["config"])
    embedding_dim = int(doc["embedding_dim"])
    return ShmmModel(
        n_states=int(doc["n_states"]),
        pi=np.array(doc["pi"], dtype=float),
        trans=np.array(doc["trans"], dtype=float),
        states=[_state_from_dict(s, embedding_dim) for s in doc["states"]],
        config=config,
        embedding_dim=embedding_dim,
    )


def save_model(model: ShmmModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1) + "\n")


def load_model(path) -> ShmmModel:
    return model_from_dict(json.loads(Path(path).read_text()))


def relabel_states(model: ShmmModel, perm: Sequence[int]) -> ShmmModel:
    """Permute state identities consistently (pi, rows+columns of A, params)."""
    perm = np.asarray(perm, dtype=int)
    return replace(
        model,
        pi=model.pi[perm],
        trans=model.trans[np.ix_(perm, perm)],
        states=[model.states[j] for j in perm],
    )
