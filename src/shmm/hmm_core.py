"""Hidden Markov machinery over multi-modal emissions.

Log-space forward-backward (scaling by log-sum-exp, never linear-space
probabilities: emission log-densities here can span hundreds of nats),
Baum-Welch EM over multi-sequence corpora, Viterbi decoding, and
one-step-ahead scoring of candidate next records.

A fit reads the columns of one `records.Corpus` in place: k-means init,
every E-step and M-step, and the re-seeding of dead states.  A list of
`Trace`s is stacked into a `Corpus` once, at the start of `baum_welch`.
Each M-step, the k-means init's included, is one call of the all-states
`emission.m_step_state` over an (N, K) gamma (one-hot for the init).

There is one forward recursion, run over a packed corpus, and the E-step
packs the corpus's trace lengths itself on every call.  Traces are
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

Memory, in (N, K) arrays of N*K*8 bytes (N records, K states) plus the
scratch block of sizes[0]*K*K*8 bytes (sizes[0] is the number of traces):
an E-step holds at most four arrays while `log_emission_matrix` builds its
output (with at most three temporaries), and three plus the scratch block
in forward-backward: the emission matrix, its packed copy, and alpha,
which the backward pass turns into gamma step by step.  Beta lives one
step at a time in one (sizes[0], K) buffer.  The E-step sets a fit's
peak: the M-step holds gamma plus two (N, K) buffers of centered
deviations, or `fit_vmf`'s (N, p) norm temporary.  Three releases keep
the peak there: the packed copy before gamma goes back into corpus order
(three arrays and the scratch block then, not four); the emission matrix
before `baum_welch`'s M-step (beside the (N, p) temporary of an
embedding wider than K, it lifts the fit's peak by about one array); and
gamma before the next E-step, which would hold one more array.
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
    DEAD_STATE_WEIGHT,
    EmissionConfig,
    check_states,
    log_emission_matrix,
    m_step_state,
    seed_state,
    state_from_dict,
    state_to_dict,
)
from .records import (
    Corpus,
    DimensionMismatchError,
    Trace,
    check_embedding_dims,
    stack_records,
)

#: Additive probability floor applied to pi and every transition row each
#: M-step (then renormalized); prevents log(0) on unseen transitions.
PROB_SMOOTHING = 1e-6

#: Relative fall in corpus log-likelihood between EM iterations beyond which
#: `baum_welch` logs a warning (smoothing may cost less than this).
LOGLIK_DECREASE_TOL = 1e-8

logger = logging.getLogger(__name__)

MODEL_FORMAT = "shmm-model"
MODEL_FORMAT_VERSION = 1


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
# the packed forward-backward core


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

    beta is held for one step at a time, and each step's alpha rows become
    gamma in place once that step's beta is known, with the operations of
    exp(alpha + beta - loglik) in that order.  log_b is not modified.
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
    # beta of one step at a time, trace j in row j: rows are only ever
    # written for traces still running at the next step, so a trace that
    # ends at a step has beta 0 there
    beta = np.zeros((sizes[0],) + log_pi.shape)
    xi_sum = np.zeros_like(log_a)
    for t in range(len(sizes) - 2, -1, -1):
        lo, nxt, n = bounds[t], bounds[t + 1], sizes[t + 1]
        _to_gamma(alpha[nxt:nxt + n], beta[:n], ll_sorted[:n])
        forward_msg = log_b[nxt:nxt + n] + beta[:n]  # (n, K)
        e = np.add(log_a, forward_msg[:, None, :], out=scratch[:n])  # (n, K, K)
        shift = e.max(axis=2, keepdims=True)
        # the unclamped max: a row with no finite term gets weight exp(-inf) = 0
        weight = alpha[lo:lo + n, :, None] + shift - ll_sorted[:n, None, None]
        shift[~np.isfinite(shift)] = 0.0
        e -= shift
        np.exp(e, out=e)
        with np.errstate(divide="ignore"):
            beta[:n] = np.log(e.sum(axis=2)) + shift[:, :, 0]
        e *= np.exp(weight)
        xi_sum += e.sum(axis=0)
    _to_gamma(alpha[: sizes[0]], beta, ll_sorted)

    del log_b  # the packed copy, freed before gamma is allocated
    gamma = np.empty_like(alpha)
    gamma[packing.rows] = alpha
    return gamma, xi_sum, loglik


def _to_gamma(alpha: np.ndarray, beta: np.ndarray, loglik: np.ndarray) -> None:
    """Turn one step's alpha rows into gamma = exp(alpha + beta - loglik), in place."""
    alpha += beta
    alpha -= loglik[:, None]
    np.exp(alpha, out=alpha)


def _log_probs(model: ShmmModel):
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.trans)


def forward_backward(model: ShmmModel, trace: Trace):
    """E-step statistics and log-likelihood of one trace.

    Returns (SufficientStats, loglik) with loglik = log p(trace | model).
    """
    check_embedding_dims([trace], model.embedding_dim)
    gamma, xi_sum, _, loglik, _ = _e_step(model, Corpus([trace]))
    return SufficientStats(gamma=gamma, xi_sum=xi_sum), loglik


def _e_step(model: ShmmModel, corpus: Corpus):
    log_pi, log_a = _log_probs(model)
    log_b_all = log_emission_matrix(
        model.states, model.config, corpus.t_day, corpus.locs, corpus.embeds
    )
    packing = _pack(corpus.lengths)
    gamma_all, xi_sum, loglik = _forward_backward(log_pi, log_a, log_b_all, packing)
    first_rows = packing.rows[: packing.sizes[0]]
    gamma0 = gamma_all[first_rows].sum(axis=0)
    return gamma_all, xi_sum, gamma0, float(loglik.sum()), log_b_all


def _smooth(raw: np.ndarray) -> np.ndarray:
    total = raw.sum()
    probs = raw / total if total > 0.0 else np.full(raw.shape, 1.0 / raw.shape[0])
    probs = probs + PROB_SMOOTHING
    return probs / probs.sum()


def _worst_explained(log_b_all: np.ndarray) -> np.ndarray:
    """Record rows, the one the current model explains worst first (ties in
    record order): the rank-th dead state of an iteration (from 0) is
    re-seeded on row rank (wrapping around past the last record), so states
    that die in the same iteration are re-seeded on distinct records."""
    k = log_b_all.shape[1]
    score = _logsumexp(log_b_all, axis=1) - math.log(k)
    return np.argsort(score, kind="stable")


# ---------------------------------------------------------------------------
# initialization


def _kmeans_locations(locs: np.ndarray, k: int, seed: int, n_iter: int) -> np.ndarray:
    """Deterministic k-means (k-means++ seeding) on record locations.

    Lloyd's loop with bounds in the style of Hamerly (2010).  Each record
    keeps `upper`, at least its distance to its own center, and `lower`, at
    most its distance to every other center.  When the centers move, `upper`
    grows by its own center's move and `lower` shrinks by the largest move
    among the other centers, so both stay bounds by the triangle
    inequality.  A record with `upper < lower - margin` keeps its label
    with no distance computed.  Otherwise `upper` is first tightened to the
    distance to its own center, and only a record whose bounds still
    overlap gets all K squared distances recomputed, by `_sq_dists` and the
    first-index argmin as in a full (N, K) pass.  The first iteration starts
    with no bounds, so it recomputes every record.

    The labels are bit for bit those of the full pass: a record is skipped
    only when its own center's computed squared distance is provably
    strictly below every other center's.  Let eps be the machine epsilon
    and S the diagonal of a box holding every record and every center so
    far, so S bounds every distance and every move.
    - A computed distance is within 1.5 eps of the true one, relative (each
      difference and square is correctly rounded, and a sum of two squares
      cannot cancel; then a square root), so within 1.5 eps*S absolutely.
      Computed squared distances are therefore strictly ordered whenever
      the true distances differ by more than 2 eps*S.
    - Each move adds the error of one computed distance and one rounding
      of a sum below 2S, so after t moves `upper` is low by at most
      (1.5 + 2.5 t) eps*S and `lower` high by at most (1.5 + 2 t) eps*S.
    - A skip is thus safe when margin >= (5 + 4.5 t) eps*S for every
      t < n_iter; the margin 16 (n_iter + 1) eps*S is over three times
      that.  It scales with the spread S, not with the coordinates:
      projected meters near 1e7 with a spread of a meter get a margin
      below 1e-12 m.  The test is strict, so an exact tie is never
      skipped, and a NaN bound compares false and is recomputed.
    An iteration that leaves a cluster empty repairs it from one full
    (N, K) pass, which gives every record's distance to its own center,
    and restarts the bounds from that pass.
    """
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

    loc_x, loc_y = locs[:, 0], locs[:, 1]
    lo, hi = locs.min(axis=0), locs.max(axis=0)
    margin_per_spread = 16 * (n_iter + 1) * np.finfo(float).eps
    labels = np.zeros(n, dtype=int)
    # no bounds yet, so the first iteration recomputes every record
    upper = np.full(n, np.inf)
    lower = np.full(n, -np.inf)
    recomputed = 0
    for it in range(n_iter):
        lo, hi = np.minimum(lo, centers.min(axis=0)), np.maximum(hi, centers.max(axis=0))
        margin = margin_per_spread * math.hypot(*(hi - lo))
        check = np.flatnonzero(~(upper < lower - margin))
        mine = centers[labels[check]]
        upper[check] = np.sqrt(_sq_dists(loc_x[check], loc_y[check], mine[:, 0], mine[:, 1]))
        rows = check[~(upper[check] < lower[check] - margin)]
        dists = _sq_dists(loc_x[rows, None], loc_y[rows, None], centers[:, 0], centers[:, 1])
        new_labels = labels.copy()
        new_labels[rows] = dists.argmin(axis=1)
        upper[rows], lower[rows] = _own_and_next(dists, new_labels[rows])
        recomputed += rows.size
        if np.bincount(new_labels, minlength=k).min() == 0:
            # keep every cluster populated: steal the records the assignment
            # explains worst
            dists = _sq_dists(loc_x[:, None], loc_y[:, None], centers[:, 0], centers[:, 1])
            recomputed += n
            own = dists[np.arange(n), new_labels]
            for j in range(k):
                if not np.any(new_labels == j):
                    candidates = np.where(np.bincount(new_labels, minlength=k)[new_labels] > 1)[0]
                    if candidates.size == 0:
                        candidates = np.arange(n)
                    steal = candidates[np.argmax(own[candidates])]
                    new_labels[steal] = j
                    own[steal] = 0.0
            upper, lower = _own_and_next(dists, new_labels)
        changed = int(np.count_nonzero(new_labels != labels))
        labels = new_labels
        if changed == 0:
            break
        moved = _cluster_means(locs, labels, k)
        step = np.sqrt(_sq_dists(moved[:, 0], moved[:, 1], centers[:, 0], centers[:, 1]))
        centers = moved
        far = int(step.argmax())
        upper += step[labels]
        lower -= np.where(labels == far, np.delete(step, far).max(initial=0.0), step[far])
    else:
        logger.info("k-means stopped unconverged at its cap of %d iterations; "
                    "%d labels changed in the last one", n_iter, changed)
    logger.debug("k-means ran %d iterations and recomputed %d of %d distance rows",
                 it + 1, recomputed, n * (it + 1))
    return labels


def _sq_dists(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Squared distances `dx*dx + dy*dy`, broadcast from the coordinates.

    The same operations in the same order as summing squared (N, K, 2)
    differences, so argmin ties break the same way (the expanded
    |x|^2 - 2x.c + |c|^2 would not).  Squared and summed in place: fresh
    temporaries cost more than the arithmetic.
    """
    dists = x - cx
    dy = y - cy
    dists *= dists
    dy *= dy
    dists += dy
    return dists


def _own_and_next(dists: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's distance to its labelled center and to the nearest other
    one (inf when K = 1), from squared distances; overwrites the labelled
    entries of dists."""
    rows = np.arange(labels.size)
    own = np.sqrt(dists[rows, labels])
    dists[rows, labels] = np.inf
    return own, np.sqrt(dists.min(axis=1))


def _cluster_means(locs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Row j is `locs[labels == j].mean(axis=0)`, bit for bit.

    A weighted `np.bincount` adds each cluster's coordinates in record
    order, as the mean over the boolean mask does, and the sums are divided
    by the counts, as `mean` divides them.
    """
    sums = np.stack([np.bincount(labels, weights=locs[:, d], minlength=k) for d in range(2)],
                    axis=1)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _init_from_kmeans(corpus: Corpus, k: int, config: EmissionConfig,
                      init: KMeansInit) -> ShmmModel:
    labels = _kmeans_locations(corpus.locs, k, init.seed, init.n_iter)
    one_hot = np.zeros((labels.size, k))
    one_hot[np.arange(labels.size), labels] = 1.0
    states = m_step_state(corpus.t_day, corpus.locs, corpus.embeds, one_hot, config)

    # smoothed empirical counts of cluster labels along traces, added in
    # record order: every row but a trace's first steps on from the row before
    is_first = np.zeros(labels.size, dtype=bool)
    is_first[np.cumsum(corpus.lengths) - corpus.lengths] = True
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
        embedding_dim=corpus.embeds.shape[1],
    )


# ---------------------------------------------------------------------------
# Baum-Welch


def baum_welch(
    corpus: Corpus | Sequence[Trace],
    k: int,
    config: EmissionConfig,
    init: KMeansInit | ShmmModel = KMeansInit(),
    stop: StopCriteria = StopCriteria(),
):
    """Fit a K-state model to a corpus of traces by EM.

    corpus is a `Corpus`, whose columns the fit reads in place, or a list
    of `Trace`s, stacked once at the start.  Returns (model, history)
    where history[i] carries the corpus log-likelihood under the
    parameters entering iteration i (and the iteration's wall-clock
    seconds).  The log-likelihood sequence is non-decreasing up to tiny
    smoothing-induced slack; iteration stops at relative improvement <
    stop.rel_tol or at stop.max_iters.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus contains no traces")
    if not isinstance(corpus, Corpus):
        corpus = Corpus(corpus)
    embedding_dim = corpus.embeds.shape[1]

    if isinstance(init, ShmmModel):
        if init.n_states != k:
            raise ValueError("explicit initial model must have n_states == k")
        if init.embedding_dim != embedding_dim:
            raise DimensionMismatchError(
                f"initial model embedding dim {init.embedding_dim} != corpus {embedding_dim}"
            )
        model = init
    else:
        model = _init_from_kmeans(corpus, k, config, init)

    history: list[EMIteration] = []
    prev_loglik = None
    for _ in range(stop.max_iters):
        started = time.perf_counter()
        gamma_all, xi_sum, gamma0, loglik, log_b_all = _e_step(model, corpus)

        # rank the records for re-seeding only when a state is dead, and
        # release the emission matrix before the M-step
        dead = gamma_all.sum(axis=0) < DEAD_STATE_WEIGHT
        worst = _worst_explained(log_b_all) if np.any(dead) else None
        del log_b_all
        states = m_step_state(corpus.t_day, corpus.locs, corpus.embeds, gamma_all, config)
        del gamma_all  # not held into the next E-step
        reseeded = [j for j, state in enumerate(states) if state is None]
        for rank, j in enumerate(reseeded):
            row = worst[rank % worst.size]
            states[j] = seed_state(corpus.t_day[row], corpus.locs[row], corpus.embeds[row],
                                   config)
        if reseeded:
            logger.info("EM iteration %d re-seeded dead states %s", len(history), reseeded)
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
    records and the candidates.  Returns the top k_top (an integer >= 1)
    candidates as (candidate_index, score) pairs, ranked descending; ties
    keep input order.  The prefix, a `Trace`, holds at least one record; a
    prefix of another embedding dim raises as `trace 0: ...`.
    """
    if isinstance(k_top, bool) or not isinstance(k_top, (int, np.integer)) or k_top < 1:
        raise ValueError(f"k_top must be an integer >= 1, got {k_top!r}")
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
    order = np.argsort(-scores, kind="stable")[:k_top]
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
    format_version, n_states and embedding_dim must be JSON integers: a
    float, string or boolean is refused, not truncated.
    """
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model document")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    config = EmissionConfig(**doc["config"])
    embedding_dim = _json_int(doc, "embedding_dim")
    return ShmmModel(
        n_states=_json_int(doc, "n_states"),
        pi=np.array(doc["pi"], dtype=float),
        trans=np.array(doc["trans"], dtype=float),
        states=[state_from_dict(s, config, embedding_dim) for s in doc["states"]],
        config=config,
        embedding_dim=embedding_dim,
    )


def _json_int(doc: dict, key: str) -> int:
    """doc[key], which must be a JSON integer (`true` is not one)."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def save_model(model: ShmmModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1) + "\n")


def load_model(path) -> ShmmModel:
    """Read a model written by `save_model`.

    A file that is not JSON, misses a key, holds a value of the wrong type
    or shape or a number too large for a float, or holds parts that do not
    fit together (a pi of the wrong length, a state without the text
    parameters its text_model needs, a non-finite or not positive definite
    state parameter) raises ValueError as `path: reason`.
    """
    try:
        return model_from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
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
