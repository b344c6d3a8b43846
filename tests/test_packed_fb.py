"""The packed forward-backward against the per-length reference recursion
and against the packed pass as it was before its scratch block, plus the
failure and warning paths around it."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from _fb_reference import (
    e_step_by_length,
    fb_batch,
    packed_forward,
    packed_forward_backward,
    scratch_forward_backward,
)
from _helpers import random_model, random_trace
from shmm import hmm_core, synth
from shmm.emission import EmissionConfig
from shmm.hmm_core import (
    KMeansInit,
    NonFiniteLikelihoodError,
    StopCriteria,
    baum_welch,
    forward_backward,
    score_next,
    viterbi,
)
from shmm.records import Corpus, Trace, stack_records

P = 4
TOL = 1e-12


def _corpus(lengths, rng):
    return [random_trace(n, P, rng, user=f"u{i}") for i, n in enumerate(lengths)]


def _structural_zero_model(rng):
    model = random_model(3, P, rng)
    return replace(
        model,
        pi=np.array([0.6, 0.4, 0.0]),
        trans=np.array([[0.7, 0.3, 0.0], [0.0, 0.5, 0.5], [0.4, 0.0, 0.6]]),
    )


CASES = {
    "mixed-lengths-with-ties": (3, [5, 2, 9, 2, 7, 1, 9, 3, 5, 5]),
    "length-one-traces": (3, [1, 1, 1, 1]),
    "mixed-with-length-one": (2, [1, 4, 1, 3]),
    "single-trace": (4, [8]),
    "one-state": (1, [4, 1, 6, 4]),
    "structural-zeros": (None, [6, 3, 1, 6, 4]),
}


def _case(name):
    k, lengths = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    model = _structural_zero_model(rng) if k is None else random_model(k, P, rng)
    return model, _corpus(lengths, rng)


def _log_probs(model):
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.trans)


@pytest.mark.parametrize("name", sorted(CASES))
def test_packed_e_step_matches_reference(name):
    model, corpus = _case(name)
    columns = Corpus(corpus)
    gamma, xi_sum, gamma0, total, log_b = hmm_core._e_step(model, columns)
    ref_gamma, ref_xi, ref_gamma0, ref_loglik = e_step_by_length(model, corpus)

    np.testing.assert_allclose(gamma, ref_gamma, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(gamma0, ref_gamma0, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(xi_sum, ref_xi, rtol=TOL, atol=0.0)
    assert total == pytest.approx(ref_loglik.sum(), rel=TOL, abs=0.0)

    log_pi, log_a = _log_probs(model)
    packing = hmm_core._pack(columns.lengths)
    _, _, loglik = hmm_core._forward_backward(log_pi, log_a, log_b, packing)
    np.testing.assert_allclose(loglik, ref_loglik, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_backward_matches_reference_per_trace(name):
    model, corpus = _case(name)
    log_pi, log_a = _log_probs(model)
    for trace in corpus:
        stats, loglik = forward_backward(model, trace)
        log_b = hmm_core.log_emission_matrix(model.states, model.config, *stack_records(trace))
        ref_gamma, ref_xi, ref_loglik = fb_batch(log_pi, log_a, log_b[None])
        np.testing.assert_allclose(stats.gamma, ref_gamma[0], rtol=0.0, atol=TOL)
        np.testing.assert_allclose(stats.xi_sum, ref_xi, rtol=TOL, atol=0.0)
        assert loglik == pytest.approx(float(ref_loglik[0]), rel=0.0, abs=TOL)


def _benchmark_shaped_case():
    """The first E-step of a `train-uniform`-shaped fit: K=30, 400 traces of
    20 records, from the k-means initial model."""
    planted = synth.planted_model(30, 30, seed=3)
    corpus = synth.sample_corpus(planted, 400, 20, seed=4)
    columns = Corpus(corpus)
    model = hmm_core._init_from_kmeans(columns, 30, EmissionConfig.shmm(), KMeansInit(seed=0))
    log_b = hmm_core.log_emission_matrix(
        model.states, model.config, columns.t_day, columns.locs, columns.embeds
    )
    return model, log_b, hmm_core._pack(columns.lengths)


def _scratch_pass_inputs(name):
    if name == "benchmark-shaped":
        model, log_b, packing = _benchmark_shaped_case()
    else:
        model, corpus = _case(name)
        columns = Corpus(corpus)
        log_b = hmm_core.log_emission_matrix(
            model.states, model.config, columns.t_day, columns.locs, columns.embeds
        )
        packing = hmm_core._pack(columns.lengths)
    log_pi, log_a = _log_probs(model)
    return log_pi, log_a, log_b, packing


def _assert_matches_packed_reference(log_pi, log_a, log_b, packing):
    packed_b = log_b[packing.rows]
    scratch = np.empty((packing.sizes[0],) + log_a.shape)
    alpha = hmm_core._forward(log_pi, log_a, packed_b, packing, scratch)
    assert alpha.tobytes() == packed_forward(log_pi, log_a, packed_b, packing).tobytes()

    before = log_b.tobytes()
    gamma, xi_sum, loglik = hmm_core._forward_backward(log_pi, log_a, log_b, packing)
    # the one-step beta pass gives the bits of the full-beta pass it replaced,
    # and leaves log_b, which `_worst_explained` reads after the E-step, as it was
    full_beta = scratch_forward_backward(log_pi, log_a, log_b, packing)
    assert [a.tobytes() for a in (gamma, xi_sum, loglik)] == [a.tobytes() for a in full_beta]
    assert log_b.tobytes() == before
    ref_gamma, ref_xi, ref_loglik = packed_forward_backward(log_pi, log_a, log_b, packing)
    assert loglik.tobytes() == ref_loglik.tobytes()
    np.testing.assert_allclose(gamma, ref_gamma, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(xi_sum, ref_xi, rtol=TOL, atol=0.0)
    return gamma, xi_sum, loglik


@pytest.mark.parametrize("name", sorted(CASES) + ["benchmark-shaped"])
def test_scratch_pass_matches_packed_reference(name):
    _assert_matches_packed_reference(*_scratch_pass_inputs(name))


@pytest.mark.parametrize("name, rows", [
    ("benchmark-shaped", 7), ("benchmark-shaped", 1), ("mixed-lengths-with-ties", 3),
    ("structural-zeros", 1),
])
def test_blocked_pass_gives_the_bits_of_one_block_per_step(name, rows, monkeypatch):
    # rows per block: 400 traces take 57 blocks of 7 and a ragged one of 1,
    # and the 10 mixed traces blocks of 3 then 1 or 2
    log_pi, log_a, log_b, packing = _scratch_pass_inputs(name)
    packed_b = log_b[packing.rows]
    alpha = hmm_core._forward(log_pi, log_a, packed_b, packing, np.empty((rows,) + log_a.shape))
    assert alpha.tobytes() == packed_forward(log_pi, log_a, packed_b, packing).tobytes()

    monkeypatch.setattr(hmm_core, "FB_BLOCK_BYTES", rows * log_a.size * 8)
    got = hmm_core._forward_backward(log_pi, log_a, log_b, packing)
    one_block = scratch_forward_backward(log_pi, log_a, log_b, packing)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in one_block]


def test_dead_transition_row_takes_the_zero_shift_path():
    """At the first backward step state 0 can reach neither state it may
    move to, so its whole row of log terms is -inf, while its forward
    message lies ~2000 nats above the log-likelihood: a weight taken from
    the clamped shift would overflow and turn xi into NaN."""
    with np.errstate(divide="ignore"):
        log_pi = np.log([0.5, 0.5, 0.0])
        log_a = np.log([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    ninf = -np.inf
    log_b = np.array([
        [0.0, -2000.0, ninf], [ninf, ninf, -1.0], [ninf, -3.0, -2.0],  # trace 0
        [-1.0, -2.0, ninf], [-4.0, -1.0, -2.0],                        # trace 1
        [0.0, -1500.0, -1.0], [ninf, ninf, -5.0], [-2.0, ninf, -1.0],  # trace 2
    ])
    packing = hmm_core._pack([3, 2, 3])
    with np.errstate(over="raise", invalid="raise"):
        gamma, xi_sum, loglik = _assert_matches_packed_reference(log_pi, log_a, log_b, packing)
    assert not np.isnan(gamma).any() and not np.isnan(xi_sum).any()
    assert np.isfinite(loglik).all()
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0.0, atol=TOL)
    # every trace but its last record contributes one transition
    assert xi_sum.sum() == pytest.approx(5.0, rel=TOL)
    # state 0 has no successor at the first record of traces 0 and 2
    assert np.all(gamma[[0, 5], 0] == 0.0)


def test_score_next_prefix_forward_matches_reference():
    model, corpus = _case("mixed-lengths-with-ties")
    prefix, candidates = Trace(corpus[2].records[:-1]), [r for t in corpus for r in t][:12]
    log_pi, log_a = _log_probs(model)
    log_b = hmm_core.log_emission_matrix(model.states, model.config, *stack_records(prefix))
    alpha = log_pi + log_b[0]
    for t in range(1, len(prefix)):
        alpha = logsumexp(alpha[:, None] + log_a, axis=0) + log_b[t]
    log_pred = logsumexp(alpha[:, None] + log_a, axis=0)
    cand_b = np.array([
        hmm_core.log_emission_matrix(
            model.states, model.config, np.array([c.t_day]), c.loc[None], c.embedding[None]
        )[0]
        for c in candidates
    ])
    expected = logsumexp(log_pred[None, :] + cand_b, axis=1)
    ranked = dict(score_next(model, prefix, candidates, k_top=len(candidates)))
    np.testing.assert_allclose([ranked[i] for i in range(len(candidates))], expected,
                               rtol=TOL, atol=0.0)


class TestLogSumExp:
    def test_matches_scipy(self):
        a = np.random.default_rng(0).normal(scale=50.0, size=(5, 6, 7))
        for axis in range(3):
            np.testing.assert_allclose(
                hmm_core._logsumexp(a, axis=axis), logsumexp(a, axis=axis), rtol=1e-14
            )

    def test_overwrite_gives_the_same_bits(self):
        a = np.random.default_rng(1).normal(scale=50.0, size=(5, 6, 7))
        a[1, 2] = -np.inf
        for axis in range(3):
            expected = hmm_core._logsumexp(a, axis=axis)
            work = a.copy()
            out = hmm_core._logsumexp(work, axis=axis, overwrite_a=True)
            assert out.tobytes() == expected.tobytes()
            assert not np.array_equal(work, a)

    def test_all_neg_inf_slice_gives_neg_inf(self):
        a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
        with np.errstate(all="raise"):
            out = hmm_core._logsumexp(a, axis=1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(np.log(1.0 + np.e))

    def test_nan_and_inf_propagate(self):
        a = np.array([[0.0, np.nan, 1.0], [np.inf, 0.0, -np.inf], [2.0, 3.0, 4.0]])
        out = hmm_core._logsumexp(a, axis=1)
        assert np.isnan(out[0])
        assert out[1] == np.inf
        assert out[2] == pytest.approx(float(logsumexp(a[2])))


def _with_far_record(trace, i):
    """The trace with record i moved so far away that its location density
    underflows to zero under every state."""
    records = list(trace.records)
    records[i] = replace(records[i], loc=np.array([1e200, 0.0]))
    return Trace(records)


class TestNonFiniteLikelihood:
    def test_error_names_first_trace_in_corpus_order(self):
        rng = np.random.default_rng(11)
        model = random_model(3, P, rng)
        corpus = _corpus([4, 6, 2, 3, 5, 9], rng)
        corpus[3] = _with_far_record(corpus[3], 1)
        # the longest trace comes first in the packed order; it must not be
        # the one reported
        corpus[5] = _with_far_record(corpus[5], 0)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteLikelihoodError, match=r"trace 3 "
        ):
            baum_welch(corpus, 3, model.config, init=model, stop=StopCriteria(max_iters=2))

    def test_viterbi_and_score_next_refuse_an_impossible_trace(self):
        rng = np.random.default_rng(12)
        model = random_model(2, P, rng)
        trace = _with_far_record(random_trace(4, P, rng), 2)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteLikelihoodError):
                viterbi(model, trace)
            with pytest.raises(NonFiniteLikelihoodError):
                score_next(model, trace, list(random_trace(3, P, rng)), k_top=1)

    def test_impossible_candidate_ranks_last(self):
        rng = np.random.default_rng(13)
        model = random_model(2, P, rng)
        prefix = random_trace(3, P, rng)
        candidates = list(_with_far_record(random_trace(3, P, rng), 0))
        with np.errstate(over="ignore"):
            ranked = score_next(model, prefix, candidates, k_top=3)
        assert ranked[-1] == (0, -np.inf)


class TestDecreaseWarning:
    def _corpus(self):
        return _corpus([5, 3, 6, 4, 5, 2], np.random.default_rng(21))

    def test_falling_loglik_is_logged(self, monkeypatch, caplog):
        real_e_step = hmm_core._e_step
        calls = []

        def falling_e_step(model, corpus):
            gamma, xi_sum, gamma0, _, log_b = real_e_step(model, corpus)
            calls.append(None)
            return gamma, xi_sum, gamma0, -1000.0 - 10.0 * len(calls), log_b

        monkeypatch.setattr(hmm_core, "_e_step", falling_e_step)
        with caplog.at_level(logging.WARNING, logger="shmm.hmm_core"):
            _, history = baum_welch(
                self._corpus(), 2, EmissionConfig.shmm(), init=KMeansInit(seed=0),
                stop=StopCriteria(rel_tol=0.0, max_iters=3),
            )
        assert [h.loglik for h in history] == [-1010.0, -1020.0, -1030.0]
        falls = [r for r in caplog.records if "fell" in r.getMessage()]
        assert len(falls) == 2
        assert all(r.levelno == logging.WARNING for r in falls)

    def test_real_run_logs_no_decrease(self, caplog):
        with caplog.at_level(logging.WARNING, logger="shmm.hmm_core"):
            baum_welch(
                self._corpus(), 2, EmissionConfig.shmm(), init=KMeansInit(seed=0),
                stop=StopCriteria(rel_tol=0.0, max_iters=5),
            )
        assert not [r for r in caplog.records if r.name == "shmm.hmm_core"]
