"""Tests for forward-backward, Baum-Welch, Viterbi and next-record scoring.

Small instances are checked against brute-force enumeration over all
state paths.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from _helpers import random_model, random_trace, unit
from shmm import hmm_core
from shmm.emission import (
    EmissionConfig,
    GaussianText,
    StateParams,
    log_emission,
    log_emission_matrix,
)
from shmm.hmm_core import (
    DimensionMismatchError,
    EmptyCorpusError,
    KMeansInit,
    NonFiniteLikelihoodError,
    ShmmModel,
    StopCriteria,
    SufficientStats,
    baum_welch,
    check_embedding_dims,
    forward_backward,
    load_model,
    model_from_dict,
    model_to_dict,
    relabel_states,
    save_model,
    score_next,
    viterbi,
)
from shmm.records import Corpus, SemanticRecord, Trace, stack_records
from shmm.synth import planted_model, sample_corpus
from shmm.vmf import VmfParams


def brute_force_loglik(model, trace):
    """log p(trace) by explicit summation over all K^R state paths."""
    k, r = model.n_states, len(trace)
    log_b = np.array(
        [[log_emission(s, model.config, rec) for s in model.states] for rec in trace]
    )
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    total = -math.inf
    for path in itertools.product(range(k), repeat=r):
        lp = log_pi[path[0]] + log_b[0][path[0]]
        for t in range(1, r):
            lp += log_a[path[t - 1], path[t]] + log_b[t][path[t]]
        total = np.logaddexp(total, lp)
    return float(total)


def brute_force_best_path(model, trace):
    k, r = model.n_states, len(trace)
    log_b = np.array(
        [[log_emission(s, model.config, rec) for s in model.states] for rec in trace]
    )
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    best, best_lp = None, -math.inf
    for path in itertools.product(range(k), repeat=r):
        lp = log_pi[path[0]] + log_b[0][path[0]]
        for t in range(1, r):
            lp += log_a[path[t - 1], path[t]] + log_b[t][path[t]]
        if lp > best_lp:
            best, best_lp = path, lp
    return np.array(best), best_lp


def path_logprob(model, trace, path):
    log_b = np.array(
        [[log_emission(s, model.config, rec) for s in model.states] for rec in trace]
    )
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    lp = log_pi[path[0]] + log_b[0][path[0]]
    for t in range(1, len(trace)):
        lp += log_a[path[t - 1], path[t]] + log_b[t][path[t]]
    return float(lp)


class TestForwardBackward:
    def test_single_state_degenerates_to_emission_sum(self):
        rng = np.random.default_rng(0)
        model = random_model(1, 3, rng)
        trace = random_trace(6, 3, rng)
        stats, loglik = forward_backward(model, trace)
        expected = sum(log_emission(model.states[0], model.config, r) for r in trace)
        assert loglik == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(stats.gamma, 1.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            k, r = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            model = random_model(k, 3, rng)
            trace = random_trace(r, 3, rng)
            _, loglik = forward_backward(model, trace)
            assert loglik == pytest.approx(brute_force_loglik(model, trace), abs=1e-9)

    def test_length_one_trace(self):
        rng = np.random.default_rng(2)
        model = random_model(3, 4, rng)
        trace = random_trace(1, 4, rng)
        stats, loglik = forward_backward(model, trace)
        log_b = np.array([log_emission(s, model.config, trace[0]) for s in model.states])
        joint = model.pi * np.exp(log_b - log_b.max())
        np.testing.assert_allclose(stats.gamma[0], joint / joint.sum(), atol=1e-12)
        assert stats.xi_sum.sum() == 0.0

    def test_gamma_and_xi_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k, r = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            model = random_model(k, 3, rng)
            trace = random_trace(r, 3, rng)
            stats, _ = forward_backward(model, trace)
            np.testing.assert_allclose(stats.gamma.sum(axis=1), 1.0, atol=1e-9)
            assert stats.xi_sum.sum() == pytest.approx(r - 1, abs=1e-9)
            assert np.all(stats.xi_sum >= 0.0)

    def test_relabeling_leaves_likelihood_unchanged(self):
        rng = np.random.default_rng(4)
        model = random_model(4, 3, rng)
        trace = random_trace(5, 3, rng)
        _, base = forward_backward(model, trace)
        perm = [2, 0, 3, 1]
        _, permuted = forward_backward(relabel_states(model, perm), trace)
        assert permuted == pytest.approx(base, abs=1e-12 * abs(base))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        model = random_model(2, 3, rng)
        trace = random_trace(4, 5, rng)
        from shmm.hmm_core import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            forward_backward(model, trace)

    def test_nan_parameters_raise(self):
        rng = np.random.default_rng(6)
        model = random_model(2, 3, rng)
        trace = random_trace(3, 3, rng)
        model.pi = model.pi.copy()
        model.pi[0] = np.nan
        with pytest.raises(NonFiniteLikelihoodError):
            forward_backward(model, trace)


class TestViterbi:
    def test_single_state(self):
        rng = np.random.default_rng(7)
        model = random_model(1, 3, rng)
        trace = random_trace(5, 3, rng)
        np.testing.assert_array_equal(viterbi(model, trace), np.zeros(5, dtype=int))

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k, r = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            model = random_model(k, 3, rng)
            trace = random_trace(r, 3, rng)
            path = viterbi(model, trace)
            _, best_lp = brute_force_best_path(model, trace)
            assert path_logprob(model, trace, path) == pytest.approx(best_lp, abs=1e-9)

    def test_deterministic_cycle_is_forced(self):
        rng = np.random.default_rng(9)
        k = 3
        model = random_model(k, 3, rng)
        model.pi = np.array([1.0, 0.0, 0.0])
        model.trans = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        # identical emissions so transitions alone decide the path
        model.states = [model.states[0]] * k
        trace = random_trace(6, 3, rng)
        np.testing.assert_array_equal(viterbi(model, trace), [0, 1, 2, 0, 1, 2])


class TestScoreNext:
    def _candidates(self, rng, n, p):
        # t_abs beyond any prefix so candidates can extend a trace
        return [
            SemanticRecord(
                user_id="c",
                t_abs=1e9,
                t_day=float(rng.uniform(0, 86400)),
                loc=rng.standard_normal(2),
                embedding=unit(rng.standard_normal(p)),
            )
            for _ in range(n)
        ]

    def test_single_state_ranks_by_emission(self):
        rng = np.random.default_rng(10)
        model = random_model(1, 3, rng)
        prefix = random_trace(3, 3, rng)
        cands = self._candidates(rng, 6, 3)
        ranked = score_next(model, prefix, cands, k_top=6)
        emission_rank = np.argsort(
            [-log_emission(model.states[0], model.config, c) for c in cands], kind="stable"
        )
        np.testing.assert_array_equal([i for i, _ in ranked], emission_rank)

    def test_matches_exhaustive_joint(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            model = random_model(k, 3, rng)
            prefix = random_trace(3, 3, rng)
            cands = self._candidates(rng, 5, 3)
            ranked = dict(score_next(model, prefix, cands, k_top=5))
            for idx, cand in enumerate(cands):
                extended = Trace([*prefix.records, cand])
                assert ranked[idx] == pytest.approx(brute_force_loglik(model, extended), abs=1e-9)

    def test_single_candidate_equals_forward_on_extended_trace(self):
        rng = np.random.default_rng(12)
        model = random_model(3, 4, rng)
        prefix = random_trace(4, 4, rng)
        cand = self._candidates(rng, 1, 4)
        (idx, score), = score_next(model, prefix, cand, k_top=1)
        assert idx == 0
        _, loglik = forward_backward(model, Trace([*prefix.records, *cand]))
        assert score == pytest.approx(loglik, abs=1e-9)

    def test_duplicate_candidates_stable_order(self):
        rng = np.random.default_rng(13)
        model = random_model(2, 3, rng)
        prefix = random_trace(2, 3, rng)
        cand = self._candidates(rng, 1, 3)[0]
        import copy

        cands = [copy.deepcopy(cand) for _ in range(4)]
        ranked = score_next(model, prefix, cands, k_top=4)
        scores = [s for _, s in ranked]
        assert len(set(scores)) == 1
        np.testing.assert_array_equal([i for i, _ in ranked], [0, 1, 2, 3])

    @pytest.mark.parametrize("k_top", [0, -1, 2.7, 2.0, True, "3", None])
    def test_bad_k_top_is_refused(self, k_top):
        # -1 used to drop the lowest-ranked candidate and 2.7 to truncate to 2
        rng = np.random.default_rng(14)
        model = random_model(2, 3, rng)
        prefix = random_trace(2, 3, rng)
        cands = self._candidates(rng, 5, 3)
        message = f"k_top must be an integer >= 1, got {k_top!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            score_next(model, prefix, cands, k_top=k_top)

    def test_bad_k_top_is_refused_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(15)
        model = random_model(2, 3, rng)
        monkeypatch.setattr(hmm_core, "log_emission_matrix", None)
        with pytest.raises(ValueError, match="^k_top must be an integer >= 1, got -1$"):
            score_next(model, random_trace(2, 3, rng), [], k_top=-1)

    @pytest.mark.parametrize("k_top", [np.int64(3), 9])
    def test_integer_k_top_keeps_at_most_that_many(self, k_top):
        rng = np.random.default_rng(16)
        model = random_model(2, 3, rng)
        prefix = random_trace(2, 3, rng)
        cands = self._candidates(rng, 5, 3)
        ranked = score_next(model, prefix, cands, k_top=k_top)
        assert ranked == score_next(model, prefix, cands, k_top=5)[:k_top]


class TestBaumWelch:
    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"rel_tol": -1e-6}, {"max_iters": 0},
    ])
    def test_stop_criteria_reject_values_that_never_or_always_stop(self, kwargs):
        with pytest.raises(ValueError, match="^need max_iters >= 1 and rel_tol >= 0$"):
            StopCriteria(**kwargs)

    def test_single_state_matches_pooled_moments(self):
        model_true = planted_model(1, 4, seed=0)
        corpus = sample_corpus(model_true, 40, 8, seed=1)
        model, history = baum_welch(corpus, 1, EmissionConfig.shmm(), stop=StopCriteria())
        assert len(history) <= 2

        from shmm.emission import m_step_state
        from shmm.records import stack_records

        all_records = [r for tr in corpus for r in tr]
        times, locs, embeds = stack_records(all_records)
        pooled = m_step_state(times, locs, embeds, np.ones(len(times)), EmissionConfig.shmm())
        assert model.states[0].mu_t == pytest.approx(pooled.mu_t, rel=1e-9)
        assert model.states[0].sigma_t == pytest.approx(pooled.sigma_t, rel=1e-9)
        np.testing.assert_allclose(model.states[0].cov_l, pooled.cov_l, rtol=1e-9)
        assert model.states[0].text.kappa == pytest.approx(pooled.text.kappa, rel=1e-9)

    def test_monotone_loglik_and_determinism(self):
        model_true = planted_model(3, 6, seed=2)
        corpus = sample_corpus(model_true, 120, 10, seed=3)
        stop = StopCriteria(rel_tol=0.0, max_iters=15)
        _, hist_a = baum_welch(corpus, 3, EmissionConfig.shmm(), init=KMeansInit(seed=5), stop=stop)
        _, hist_b = baum_welch(corpus, 3, EmissionConfig.shmm(), init=KMeansInit(seed=5), stop=stop)
        logliks = [h.loglik for h in hist_a]
        for prev, curr in zip(logliks, logliks[1:]):
            assert curr >= prev - 1e-8 * abs(prev)
        assert [h.loglik for h in hist_b] == pytest.approx(logliks, rel=1e-12)

    def test_planted_recovery_small(self):
        k, p = 3, 8
        model_true = planted_model(k, p, seed=4, kappas=[40.0, 80.0, 120.0])
        corpus = sample_corpus(model_true, 300, 12, seed=5)
        model, _ = baum_welch(
            corpus, k, EmissionConfig.shmm(), init=KMeansInit(seed=0),
            stop=StopCriteria(rel_tol=1e-9, max_iters=60),
        )
        # align states by text direction similarity
        cos = np.array(
            [[float(s.text.mu @ t.text.mu) for t in model_true.states] for s in model.states]
        )
        row, col = linear_sum_assignment(-cos)
        perm = np.empty(k, dtype=int)
        perm[col] = row
        aligned = relabel_states(model, perm)
        for fitted, true in zip(aligned.states, model_true.states):
            assert float(fitted.text.mu @ true.text.mu) > 0.99
            assert fitted.text.kappa == pytest.approx(true.text.kappa, rel=0.10)
        row_err = np.abs(aligned.trans - model_true.trans).sum(axis=1)
        assert row_err.max() < 0.1

    def test_dead_state_is_reseeded(self):
        model_true = planted_model(1, 4, seed=6)
        corpus = sample_corpus(model_true, 30, 6, seed=7)
        # second state planted impossibly far away so it collects ~zero
        # responsibility and must be re-seeded
        far = StateParams(
            mu_t=1.0,
            sigma_t=60.0,
            mu_l=np.array([500.0, 500.0]),
            cov_l=1e-6 * np.eye(2),
            text=VmfParams(mu=unit(np.ones(4)), kappa=1.0, p=4),
        )
        init = ShmmModel(
            n_states=2,
            pi=np.array([1.0 - 1e-12, 1e-12]),
            trans=np.array([[1.0 - 1e-12, 1e-12], [0.5, 0.5]]),
            states=[model_true.states[0], far],
            config=EmissionConfig.shmm(),
            embedding_dim=4,
        )
        model, _ = baum_welch(
            corpus, 2, EmissionConfig.shmm(), init=init, stop=StopCriteria(max_iters=3)
        )
        assert float(np.linalg.norm(model.states[1].mu_l)) < 100.0

    @pytest.mark.filterwarnings("ignore::shmm.vmf.DegenerateResultantWarning")
    def test_states_dead_together_are_reseeded_apart(self):
        model_true = planted_model(1, 4, seed=6)
        corpus = sample_corpus(model_true, 30, 6, seed=7)

        def far(x):
            return StateParams(mu_t=1.0, sigma_t=60.0, mu_l=np.array([x, x]),
                               cov_l=1e-6 * np.eye(2),
                               text=VmfParams(mu=unit(np.ones(4)), kappa=1.0, p=4))

        # states 1 and 2 both die in the first M-step
        init = ShmmModel(
            n_states=3,
            pi=np.array([1.0 - 2e-12, 1e-12, 1e-12]),
            trans=np.array([[1.0 - 2e-12, 1e-12, 1e-12], [1 / 3] * 3, [1 / 3] * 3]),
            states=[model_true.states[0], far(500.0), far(-500.0)],
            config=EmissionConfig.shmm(),
            embedding_dim=4,
        )
        times, locs, embeds = (np.concatenate(cols) for cols in zip(*map(stack_records, corpus)))
        score = logsumexp(log_emission_matrix(init.states, init.config, times, locs, embeds),
                          axis=1)
        worst = np.argsort(score, kind="stable")[:2]

        def fit(max_iters):
            return baum_welch(corpus, 3, EmissionConfig.shmm(), init=init,
                              stop=StopCriteria(max_iters=max_iters, rel_tol=0.0))[0]

        # the i-th dead state is centered on the i-th worst-explained record
        model = fit(1)
        for state, i in zip(model.states[1:], worst):
            np.testing.assert_array_equal(state.mu_l, locs[i])
            assert state.mu_t == times[i]
        # ... so the two never become clones
        model = fit(30)
        assert not np.array_equal(model.states[1].mu_l, model.states[2].mu_l)
        assert not np.array_equal(model.trans[1], model.trans[2])

    @pytest.mark.filterwarnings("ignore::shmm.vmf.DegenerateResultantWarning")
    def test_more_dead_states_than_records_wrap_around(self):
        # one record leaves at least two of three states dead each iteration
        model_true = planted_model(3, 4, seed=1)
        corpus = sample_corpus(model_true, 1, 1, seed=2)
        model, history = baum_welch(corpus, 3, EmissionConfig.shmm(), init=model_true,
                                    stop=StopCriteria(max_iters=3))
        assert len(history) == 3
        for state in model.states:
            np.testing.assert_array_equal(state.mu_l, corpus[0].records[0].loc)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            baum_welch([], 2, EmissionConfig.shmm())

    def test_foreign_embedding_dim_names_the_trace(self):
        from shmm.hmm_core import DimensionMismatchError

        rng = np.random.default_rng(30)
        corpus = [random_trace(3, 4, rng) for _ in range(5)]
        corpus[3] = random_trace(3, 5, rng)
        with pytest.raises(DimensionMismatchError,
                           match="^trace 3: trace embedding dim 5 != model 4$"):
            baum_welch(corpus, 2, EmissionConfig.shmm())

    @pytest.mark.parametrize("position", [0, 3])
    def test_empty_trace_is_named(self, tmp_path, capsys, position):
        from shmm.cli import main
        from shmm.data_io import write_corpus

        rng = np.random.default_rng(31)
        corpus_path, model_path = tmp_path / "corpus.ndjson", tmp_path / "model.json"
        write_corpus([random_trace(3, 4, rng) for _ in range(5)], corpus_path)
        lines = corpus_path.read_text().splitlines()
        lines[position] = json.dumps({"user_id": "u", "records": []})
        corpus_path.write_text("\n".join(lines) + "\n")
        save_model(random_model(2, 4, rng), model_path)
        for argv in (["train", "--k", "2"], ["predict", "--model", str(model_path)]):
            rc = main([*argv, "--corpus", str(corpus_path), "--output-dir", str(tmp_path / "out")])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: {corpus_path}:{position + 1}: a trace needs at least one record\n")

    def test_initial_model_of_another_dim_fails_before_the_e_step(self, monkeypatch):
        from shmm import hmm_core
        from shmm.hmm_core import DimensionMismatchError

        def no_e_step(*args, **kwargs):
            raise AssertionError("the E-step ran")

        monkeypatch.setattr(hmm_core, "log_emission_matrix", no_e_step)
        rng = np.random.default_rng(32)
        corpus = [random_trace(3, 4, rng) for _ in range(3)]
        with pytest.raises(DimensionMismatchError,
                           match="^initial model embedding dim 5 != corpus 4$"):
            baum_welch(corpus, 2, EmissionConfig.shmm(), init=random_model(2, 5, rng))


#: Trace lengths of the corpora the fit's columns and the k-means counts are checked on.
BUNDLE_CASES = {
    "mixed-lengths": [5, 1, 3, 3, 7, 2],
    "one-trace": [6],
    "length-1-traces": [1, 1, 1, 1],
    "length-1-among-long": [1, 4, 1, 4, 1],
}


def _bundle_case(name):
    rng = np.random.default_rng(sorted(BUNDLE_CASES).index(name))
    return [random_trace(r, 3, rng) for r in BUNDLE_CASES[name]]


class TestCorpusBundle:
    """The `Corpus` a fit reads: its columns, and the counts k-means init takes from it."""

    @pytest.mark.parametrize("name", sorted(BUNDLE_CASES))
    def test_arrays_equal_the_per_trace_concatenation(self, name, monkeypatch):
        from shmm import hmm_core

        class Built(Exception):
            pass

        fitted = []

        def recording_init(corpus, *args):
            fitted.append(corpus)
            raise Built  # the columns are all this test reads

        monkeypatch.setattr(hmm_core, "_init_from_kmeans", recording_init)
        corpus = _bundle_case(name)
        with pytest.raises(Built):
            baum_welch(corpus, 3, EmissionConfig.shmm())
        [columns] = fitted
        assert isinstance(columns, Corpus)
        assert columns.lengths.tolist() == BUNDLE_CASES[name]
        stacked = [stack_records(t) for t in corpus]
        for i, got in enumerate((columns.t_day, columns.locs, columns.embeds)):
            expected = np.concatenate([c[i] for c in stacked])
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_forward_backward_reads_records_changed_after_construction(self):
        from shmm.hmm_core import _e_step

        rng = np.random.default_rng(21)
        model, trace = random_model(3, 4, rng), random_trace(5, 4, rng)
        forward_backward(model, trace)  # scored once before the change
        trace[2].t_day = (trace[2].t_day + 43_200.0) % 86_400.0
        stats, loglik = forward_backward(model, trace)
        gamma, _, _, corpus_loglik, _ = _e_step(model, Corpus([trace]))
        assert loglik == corpus_loglik
        assert np.array_equal(stats.gamma, gamma)

    @pytest.mark.parametrize("name", sorted(BUNDLE_CASES))
    def test_kmeans_counts_equal_the_per_trace_loop(self, name):
        from shmm.hmm_core import _init_from_kmeans, _kmeans_locations

        corpus, k, init = _bundle_case(name), 3, KMeansInit(seed=4)
        columns = Corpus(corpus)
        model = _init_from_kmeans(columns, k, EmissionConfig.shmm(), init)

        # the per-trace counting loop that the column counts replaced
        labels = _kmeans_locations(columns.locs, k, init.seed, init.n_iter)
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
        assert model.pi.tobytes() == pi.tobytes()
        assert model.trans.tobytes() == trans.tobytes()

    @pytest.mark.parametrize("preset", ["shmm", "ghmm"])
    def test_a_trace_list_fits_as_its_corpus(self, preset):
        corpus = _bundle_case("mixed-lengths")
        fits = [
            baum_welch(traces, 3, EmissionConfig.preset(preset), init=KMeansInit(seed=4),
                       stop=StopCriteria(rel_tol=0.0, max_iters=5))
            for traces in (corpus, Corpus(corpus))
        ]
        (model, history), (corpus_model, corpus_history) = fits
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(corpus_model))
        assert [h.loglik for h in history] == [h.loglik for h in corpus_history]
        assert len(history) == 5

    def test_trace_records_cannot_grow(self):
        trace = random_trace(3, 4, np.random.default_rng(34))
        assert isinstance(trace.records, tuple)
        with pytest.raises(AttributeError):
            trace.records.append(trace[0])

    @pytest.mark.parametrize("records", [[], ()], ids=["list", "tuple"])
    def test_trace_needs_a_record(self, records):
        with pytest.raises(ValueError, match="^a trace needs at least one record$"):
            Trace(records)

    def test_check_embedding_dims_names_the_first_foreign_trace(self):
        rng = np.random.default_rng(35)
        corpus = [random_trace(2, 4, rng) for _ in range(6)]
        corpus[2] = random_trace(3, 5, rng)
        corpus[4] = random_trace(1, 3, rng)
        check_embedding_dims(corpus[:2], 4)
        with pytest.raises(DimensionMismatchError,
                           match="^trace 2: trace embedding dim 5 != model 4$"):
            check_embedding_dims(corpus, 4)

    @pytest.mark.parametrize("call", [
        forward_backward, viterbi, lambda model, trace: score_next(model, trace, trace.records, 1),
    ], ids=["forward_backward", "viterbi", "score_next"])
    def test_single_trace_callers_name_trace_0(self, call):
        rng = np.random.default_rng(36)
        with pytest.raises(DimensionMismatchError,
                           match="^trace 0: trace embedding dim 5 != model 4$"):
            call(random_model(2, 4, rng), random_trace(3, 5, rng))

    def test_trace_rejects_mixed_embedding_lengths(self):
        rng = np.random.default_rng(33)
        records = random_trace(2, 4, rng).records + random_trace(3, 5, rng).records[2:]
        with pytest.raises(ValueError, match=r"^records mix embedding lengths \[4, 5\]$"):
            Trace(records)


class TestSerialization:
    def test_round_trip_preserves_likelihood(self, tmp_path):
        rng = np.random.default_rng(14)
        model = random_model(3, 5, rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.pi, model.pi)
        np.testing.assert_array_equal(loaded.trans, model.trans)
        for a, b in zip(loaded.states, model.states):
            assert a.mu_t == b.mu_t and a.sigma_t == b.sigma_t
            np.testing.assert_array_equal(a.cov_l, b.cov_l)
            np.testing.assert_array_equal(a.text.mu, b.text.mu)
            assert a.text.kappa == b.text.kappa
        trace = random_trace(4, 5, rng)
        _, ll_a = forward_backward(model, trace)
        _, ll_b = forward_backward(loaded, trace)
        assert ll_a == ll_b

    @pytest.mark.parametrize("preset", ["shmm", "ghmm", "st-hmm", "hmm"])
    def test_saved_model_reloads_to_the_same_bytes(self, tmp_path, preset):
        corpus = sample_corpus(planted_model(3, 4, seed=2), 12, 6, seed=3)
        model, _ = baum_welch(corpus, 3, EmissionConfig.preset(preset), init=KMeansInit(seed=1),
                              stop=StopCriteria(max_iters=3))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("key, value, reason", [
        ("n_states", True, "n_states must be an integer, got True"),
        ("n_states", 1.9, "n_states must be an integer, got 1.9"),
        ("n_states", "1", "n_states must be an integer, got '1'"),
        ("embedding_dim", 4.5, "embedding_dim must be an integer, got 4.5"),
        ("format_version", True, "unsupported model format version True"),
    ])
    def test_counts_must_be_json_integers(self, tmp_path, key, value, reason):
        # a one-state, 4-dimensional model, so each value once truncated to a count that fit
        path = tmp_path / "model.json"
        save_model(random_model(1, 4, np.random.default_rng(16)), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {reason}')}$"):
            load_model(path)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_ghmm_round_trip(self, tmp_path):
        state = StateParams(
            mu_t=100.0,
            sigma_t=60.0,
            mu_l=np.zeros(2),
            cov_l=np.eye(2),
            text=GaussianText(mean=np.array([0.1, 0.2, 0.3]), var=np.array([0.5, 0.5, 0.5])),
        )
        model = ShmmModel(
            n_states=1,
            pi=np.array([1.0]),
            trans=np.array([[1.0]]),
            states=[state],
            config=EmissionConfig.ghmm(),
            embedding_dim=3,
        )
        doc = model_to_dict(model)
        loaded = model_from_dict(doc)
        text = loaded.states[0].text
        assert isinstance(text, GaussianText)
        np.testing.assert_array_equal(text.mean, state.text.mean)
        np.testing.assert_array_equal(text.var, state.text.var)

    @pytest.mark.parametrize("field, value, message", [
        ("mu_t", math.nan, "state 1: mu_t must be finite"),
        ("sigma_t", math.inf, "state 1: sigma_t must be finite"),
        ("mu_l", [0.0, math.nan], "state 1: mu_l must be finite"),
        ("cov_l", [[1.0, 0.0], [0.0, math.inf]], "state 1: cov_l must be finite"),
        ("cov_l", [[1.0, 2.0], [2.0, 1.0]], "cov_l of state 1 is not positive definite"),
        ("cov_l", [[-1.0, 0.0], [0.0, -1.0]], "cov_l of state 1 is not positive definite"),
    ])
    def test_bad_state_parameter_is_rejected_naming_the_state(self, field, value, message):
        doc = model_to_dict(random_model(3, 5, np.random.default_rng(17)))
        doc["states"][1][field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_dict(doc)

    def test_non_finite_gaussian_text_mean_is_rejected(self):
        state = StateParams(mu_t=100.0, sigma_t=60.0, mu_l=np.zeros(2), cov_l=np.eye(2),
                            text=GaussianText(np.array([0.1, math.nan, 0.3]), np.full(3, 0.5)))
        with pytest.raises(ValueError, match="^state 0: text_mean must be finite$"):
            ShmmModel(n_states=1, pi=np.array([1.0]), trans=np.array([[1.0]]), states=[state],
                      config=EmissionConfig.ghmm(), embedding_dim=3)

    @pytest.mark.parametrize("preset, text, message", [
        ("shmm", GaussianText(np.full(3, 0.5), np.full(3, 0.5)),
         "state 0: text_model 'vmf' needs vMF text parameters of dimension 3"),
        ("ghmm", VmfParams(mu=np.array([0.6, 0.0, 0.8]), kappa=5.0, p=3),
         "state 0: text_model 'gaussian' needs text_mean and positive finite text_var "
         "of shape (3,)"),
    ])
    def test_state_holding_the_other_text_model_is_rejected(self, preset, text, message):
        state = StateParams(mu_t=100.0, sigma_t=60.0, mu_l=np.zeros(2), cov_l=np.eye(2),
                            text=text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShmmModel(n_states=1, pi=np.array([1.0]), trans=np.array([[1.0]]), states=[state],
                      config=EmissionConfig.preset(preset), embedding_dim=3)

    def test_vmf_state_without_text_is_rejected(self):
        doc = model_to_dict(random_model(3, 5, np.random.default_rng(15)))
        doc["states"][1]["text"] = None
        with pytest.raises(ValueError, match="state 1: text_model 'vmf'"):
            model_from_dict(doc)

    def test_vmf_text_of_the_wrong_dimension_is_rejected(self):
        model = random_model(2, 5, np.random.default_rng(16))
        with pytest.raises(ValueError, match="state 0: .* dimension 6"):
            ShmmModel(
                n_states=2, pi=model.pi, trans=model.trans, states=model.states,
                config=model.config, embedding_dim=6,
            )

    @pytest.mark.parametrize("field, value", [
        ("text_var", None),
        ("text_mean", None),
        ("text_mean", [0.1, 0.2]),
        ("text_var", [0.5, 0.0, 0.5]),
    ])
    def test_ghmm_state_without_gaussian_text_is_rejected(self, field, value):
        state = {"mu_t": 100.0, "sigma_t": 60.0, "mu_l": [0.0, 0.0],
                 "cov_l": [[1.0, 0.0], [0.0, 1.0]], "text": None,
                 "text_mean": [0.1, 0.2, 0.3], "text_var": [0.5, 0.5, 0.5]}
        broken = dict(state, **{field: value})
        doc = {
            "format": "shmm-model", "format_version": 1, "n_states": 2, "embedding_dim": 3,
            "config": {"use_time": True, "use_location": True, "text_model": "gaussian",
                       "sigma_t_floor": 60.0, "var_floor": 1e-6},
            "pi": [0.5, 0.5], "trans": [[0.5, 0.5], [0.5, 0.5]],
            "states": [state, broken],
        }
        with pytest.raises(ValueError, match="state 1: text_model 'gaussian'"):
            model_from_dict(doc)
