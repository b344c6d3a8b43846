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

Each step's (n, K, K) block of log terms is built in one scratch block,
allocated once per pass and sized for the first step, and reduced there
in place: the recursion makes no fresh (n, K, K) temporaries.  The
backward step exponentiates its block once and reads both the backward
message and the step's expected transition counts from it.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .emission import (
    EmissionConfig,
    EmptyStateError,
    StateParams,
    check_states,
    log_emission_matrix,
    m_step_state,
    seed_state,
    state_from_dict,
    state_to_dict,
)
from .records import Trace, stack_records

#: Additive probability floor applied to pi and every transition row each
#: M-step (then renormalized); prevents log(0) on unseen transitions.
PROB_SMOOTHING = 1e-6

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
        if not (np.all(self.pi >= 0.0) and np.all(self.trans >= 0.0)):  # false for NaN
            raise ValueError("probabilities must be non-negative")
        if not abs(self.pi.sum() - 1.0) <= 1e-9:
            raise ValueError("pi must sum to 1")
        if not np.max(np.abs(self.trans.sum(axis=1) - 1.0)) <= 1e-9:
            raise ValueError("every transition row must sum to 1")
        check_states(self.states, self.config, self.embedding_dim)


@dataclass
class SufficientStats:
    """E-step quantities for one trace.

    gamma[i, z] is the posterior responsibility of state z for record i;
    xi_sum[z, z'] the expected transition counts summed over slots.
    """

    gamma: np.ndarray
    xi_sum: np.ndarray


@dataclass(frozen=True)
class KMeansInit:
    """Initialize states from k-means clusters of record locations."""

    seed: int = 0
    n_iter: int = 100

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter!r}")


@dataclass(frozen=True)
class StopCriteria:
    rel_tol: float = 1e-6
    max_iters: int = 200

    def __post_init__(self):
        if self.max_iters < 1 or not self.rel_tol >= 0.0:  # also true for NaN
            raise ValueError("need max_iters >= 1 and rel_tol >= 0")


@dataclass(frozen=True)
class EMIteration:
    loglik: float
    seconds: float


# ---------------------------------------------------------------------------
# corpus bundling and the packed forward-backward core


def _logsumexp(a: np.ndarray, axis: int, overwrite_a: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the slice max.

    An all -inf slice gives -inf; inf and NaN propagate.  With overwrite_a
    the shift and exp are done in a itself, with the same results.
    """
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    if overwrite_a:
        a -= shift
    else:
        a = a - shift
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        out = np.log(a.sum(axis=axis))
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
             packing: _Packing, scratch: np.ndarray) -> np.ndarray:
    """Log forward messages over (N, K) emission log-densities in packed order.

    scratch is a (sizes[0], K, K) work block; its contents are overwritten.
    """
    sizes, bounds = packing.sizes, packing.bounds
    alpha = np.empty_like(log_b)
    alpha[: sizes[0]] = log_pi + log_b[: sizes[0]]
    for t in range(1, len(sizes)):
        lo, hi, prev = bounds[t], bounds[t + 1], bounds[t - 1]
        cube = np.add(alpha[prev:prev + hi - lo, :, None], log_a, out=scratch[: hi - lo])
        alpha[lo:hi] = _logsumexp(cube, axis=1, overwrite_a=True) + log_b[lo:hi]
    return alpha


def _forward_backward(log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray,
                      packing: _Packing):
    """Forward-backward over every trace of a packed corpus at once.

    log_b is the (N, K) emission matrix in corpus row order.  Returns
    (gamma (N, K) in corpus row order, xi_sum (K, K) summed over traces and
    slots, loglik (B,) in corpus trace order).

    Both passes work in one (sizes[0], K, K) scratch block.  A backward
    step fills it with e[i, z, z'] = log A(z, z') + log b(z') + beta(z'),
    subtracts the row max m[i, z] (0 where the row is all -inf) and
    exponentiates it once.  beta is log(sum over z' of e) + m, and the
    step's xi contribution is e weighted by exp(alpha + m - loglik): that
    weight is at most gamma <= 1, and 0 for a row with no finite term.
    """
    sizes, bounds = packing.sizes, packing.bounds
    log_b = log_b[packing.rows]
    scratch = np.empty((sizes[0],) + log_a.shape)
    alpha = _forward(log_pi, log_a, log_b, packing, scratch)
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
        e = np.add(log_a, forward_msg[:, None, :], out=scratch[:n])  # (n, K, K)
        shift = e.max(axis=2, keepdims=True)
        # the unclamped max: a row with no finite term gets weight exp(-inf) = 0
        weight = alpha[lo:lo + n, :, None] + shift - ll_sorted[:n, None, None]
        shift[~np.isfinite(shift)] = 0.0
        e -= shift
        np.exp(e, out=e)
        with np.errstate(divide="ignore"):
            beta[lo:lo + n] = np.log(e.sum(axis=2)) + shift[:, :, 0]
        e *= np.exp(weight)
        xi_sum += e.sum(axis=0)

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


def _bundle_corpus(corpus: Sequence[Trace]) -> _CorpusBundle:
    """Flat record arrays of a corpus, stacked in one pass: the one place a fit reads traces.

    The first record sets the embedding dimension; a trace of another
    dimension raises, named by its position.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus contains no traces")
    check_embedding_dims(corpus, len(corpus[0][0].embedding))
    times, locs, embeds = stack_records([r for trace in corpus for r in trace])
    return _CorpusBundle(times, locs, embeds, _pack([len(t) for t in corpus]))


def check_embedding_dims(corpus: Sequence[Trace], embedding_dim: int) -> None:
    """Raise DimensionMismatchError for the first trace of another embedding dim.

    The message names the trace by position, as in `trace 7: trace
    embedding dim 5 != model 4`.  Reads each trace's first record only: a
    `Trace` holds at least one record and one embedding length.
    """
    for i, trace in enumerate(corpus):
        dim = len(trace[0].embedding)
        if dim != embedding_dim:
            raise DimensionMismatchError(
                f"trace {i}: trace embedding dim {dim} != model {embedding_dim}")


def _log_probs(model: ShmmModel):
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.trans)


def forward_backward(model: ShmmModel, trace: Trace):
    """E-step statistics and log-likelihood of one trace.

    Returns (SufficientStats, loglik) with loglik = log p(trace | model).
    """
    check_embedding_dims([trace], model.embedding_dim)
    gamma, xi_sum, _, loglik, _ = _e_step(model, _bundle_corpus([trace]))
    return SufficientStats(gamma=gamma, xi_sum=xi_sum), loglik


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


def _reseed_state(bundle: _CorpusBundle, log_b_all: np.ndarray,
                  config: EmissionConfig, rank: int) -> StateParams:
    """Replacement parameters for an iteration's rank-th dead state (from 0),
    centered on the record the current model explains rank-th worst (ties
    in record order; ranks past the last record wrap around), so states
    that die in the same iteration are re-seeded on distinct records."""
    k = log_b_all.shape[1]
    score = _logsumexp(log_b_all, axis=1) - math.log(k)
    worst = int(np.argsort(score, kind="stable")[rank % score.size])
    return seed_state(bundle.times[worst], bundle.locs[worst], bundle.embeds[worst], config)


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
    # squared distances as dx*dx + dy*dy over (N, K): the same operations in
    # the same order as summing the squared (N, K, 2) differences, so ties
    # break the same way (the expanded |x|^2 - 2x.c + |c|^2 would not).
    # Squared and summed in place: fresh (N, K) temporaries cost more than
    # the arithmetic.
    loc_x, loc_y = locs[:, :1], locs[:, 1:]
    for _ in range(n_iter):
        dists = loc_x - centers[:, 0]
        dy = loc_y - centers[:, 1]
        dists *= dists
        dy *= dy
        dists += dy
        new_labels = dists.argmin(axis=1)
        if np.bincount(new_labels, minlength=k).min() == 0:
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
        changed = int(np.count_nonzero(new_labels != labels))
        labels = new_labels
        if changed == 0:
            break
        centers = _cluster_means(locs, labels, k)
    else:
        logger.info("k-means stopped unconverged at its cap of %d iterations; "
                    "%d labels changed in the last one", n_iter, changed)
    return labels


def _cluster_means(locs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Row j is `locs[labels == j].mean(axis=0)`, bit for bit.

    A weighted `np.bincount` adds each cluster's coordinates in record
    order, as the mean over the boolean mask does, and the sums are divided
    by the counts, as `mean` divides them.
    """
    sums = np.stack([np.bincount(labels, weights=locs[:, d], minlength=k) for d in range(2)],
                    axis=1)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _init_from_kmeans(bundle: _CorpusBundle, k: int, config: EmissionConfig,
                      init: KMeansInit) -> ShmmModel:
    labels = _kmeans_locations(bundle.locs, k, init.seed, init.n_iter)
    states = []
    for j in range(k):
        gamma = (labels == j).astype(float)
        states.append(m_step_state(bundle.times, bundle.locs, bundle.embeds, gamma, config))

    # smoothed empirical counts of cluster labels along traces, added in
    # record order: every row but a trace's first steps on from the row before
    is_first = np.zeros(labels.size, dtype=bool)
    is_first[bundle.packing.rows[: bundle.packing.sizes[0]]] = True
    steps = np.flatnonzero(~is_first)
    pi_counts = np.full(k, 0.1)
    trans_counts = np.full((k, k), 0.1)
    np.add.at(pi_counts, labels[is_first], 1.0)
    np.add.at(trans_counts, (labels[steps - 1], labels[steps]), 1.0)
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
    if k < 1:
        raise ValueError("k must be >= 1")
    bundle = _bundle_corpus(corpus)
    embedding_dim = bundle.embeds.shape[1]

    if isinstance(init, ShmmModel):
        if init.n_states != k:
            raise ValueError("explicit initial model must have n_states == k")
        if init.embedding_dim != embedding_dim:
            raise DimensionMismatchError(
                f"initial model embedding dim {init.embedding_dim} != corpus {embedding_dim}"
            )
        model = init
    else:
        model = _init_from_kmeans(bundle, k, config, init)

    history: list[EMIteration] = []
    prev_loglik = None
    for _ in range(stop.max_iters):
        started = time.perf_counter()
        gamma_all, xi_sum, gamma0, loglik, log_b_all = _e_step(model, bundle)

        states, n_dead = [], 0
        for j in range(k):
            try:
                states.append(
                    m_step_state(bundle.times, bundle.locs, bundle.embeds, gamma_all[:, j], config)
                )
            except EmptyStateError:
                states.append(_reseed_state(bundle, log_b_all, config, n_dead))
                n_dead += 1
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
    check_embedding_dims([trace], model.embedding_dim)
    log_pi, log_a = _log_probs(model)
    log_b = log_emission_matrix(model.states, model.config, *stack_records(trace))
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
    computed in log space, with one emission matrix over the prefix
    records and the candidates.  Returns the top k_top candidates as
    (candidate_index, score) pairs, ranked descending; ties keep input
    order.  The prefix, a `Trace`, holds at least one record; a prefix of
    another embedding dim raises as `trace 0: ...`.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    check_embedding_dims([prefix], model.embedding_dim)
    if any(len(c.embedding) != model.embedding_dim for c in candidates):
        raise DimensionMismatchError("candidate embedding dimension does not match model")
    log_pi, log_a = _log_probs(model)
    n = len(prefix)
    times, locs, embeds = stack_records(list(prefix) + list(candidates))
    log_b = log_emission_matrix(model.states, model.config, times, locs, embeds)
    alpha = _forward(log_pi, log_a, log_b[:n], _pack([n]), np.empty((1,) + log_a.shape))[-1]
    if not np.isfinite(alpha.max()):
        raise NonFiniteLikelihoodError("prefix log-likelihood is not finite")
    log_pred = _logsumexp(alpha[:, None] + log_a, axis=0)
    scores = _logsumexp(log_pred[None, :] + log_b[n:], axis=1)
    order = np.argsort(-scores, kind="stable")[: int(k_top)]
    return [(int(i), float(scores[i])) for i in order]


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: ShmmModel) -> dict:
    """Versioned JSON-ready document; floats keep full double precision."""
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "n_states": model.n_states,
        "embedding_dim": model.embedding_dim,
        "config": asdict(model.config),
        "pi": model.pi.tolist(),
        "trans": model.trans.tolist(),
        "states": [state_to_dict(s) for s in model.states],
    }


def model_from_dict(doc: dict) -> ShmmModel:
    """The model a `model_to_dict` document describes.

    A missing key raises KeyError; a value of the wrong type or shape, or
    parts that do not fit together, raise TypeError or ValueError.
    """
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    config = EmissionConfig(**doc["config"])
    embedding_dim = int(doc["embedding_dim"])
    return ShmmModel(
        n_states=int(doc["n_states"]),
        pi=np.array(doc["pi"], dtype=float),
        trans=np.array(doc["trans"], dtype=float),
        states=[state_from_dict(s, embedding_dim) for s in doc["states"]],
        config=config,
        embedding_dim=embedding_dim,
    )


def save_model(model: ShmmModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1) + "\n")


def load_model(path) -> ShmmModel:
    """Read a model written by `save_model`.

    A file that is not JSON, misses a key, holds a value of the wrong type
    or shape, or holds parts that do not fit together (a pi of the wrong
    length, a state without the text parameters its text_model needs, a
    non-finite or not positive definite state parameter) raises
    ValueError as `path: reason`.
    """
    try:
        return model_from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def relabel_states(model: ShmmModel, perm: Sequence[int]) -> ShmmModel:
    """Permute state identities consistently (pi, rows+columns of A, params)."""
    perm = np.asarray(perm, dtype=int)
    return replace(
        model,
        pi=model.pi[perm],
        trans=model.trans[np.ix_(perm, perm)],
        states=[model.states[j] for j in perm],
    )
