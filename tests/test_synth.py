"""Tests for the planted-model generator and experiment drivers."""

import dataclasses

import numpy as np
import pytest

import _synth_reference as reference
from shmm import synth
from shmm.emission import EmissionConfig, GaussianText
from shmm.hmm_core import ShmmModel
from shmm.records import stack_records
from shmm.synth import (
    ESTIMATION_GRIDS,
    estimation_error,
    newton_convergence,
    orthonormal_directions,
    planted_model,
    sample_corpus,
)


class TestGenerators:
    def test_orthonormal_directions(self):
        dirs = orthonormal_directions(4, 10, seed=0)
        np.testing.assert_allclose(dirs @ dirs.T, np.eye(4), atol=1e-12)

    def test_planted_model_is_valid_and_deterministic(self):
        a = planted_model(5, 10, seed=3)
        b = planted_model(5, 10, seed=3)
        np.testing.assert_array_equal(a.trans, b.trans)
        np.testing.assert_array_equal(a.pi, b.pi)
        assert a.n_states == 5
        np.testing.assert_allclose(a.trans.sum(axis=1), 1.0, atol=1e-12)

    def test_sample_corpus_shapes_and_determinism(self):
        model = planted_model(3, 6, seed=4)
        a = sample_corpus(model, 20, 7, seed=5)
        b = sample_corpus(model, 20, 7, seed=5)
        assert len(a) == 20
        assert all(len(t) == 7 for t in a)
        np.testing.assert_array_equal(stack_records(a[3])[2], stack_records(b[3])[2])
        np.testing.assert_array_equal(stack_records(a[3])[1], stack_records(b[3])[1])
        for trace in a:
            np.testing.assert_allclose(np.linalg.norm(stack_records(trace)[2], axis=1), 1.0,
                                       atol=1e-9)

    def test_single_state_moments_match(self):
        model = planted_model(1, 4, seed=6, kappas=[30.0])
        corpus = sample_corpus(model, 200, 10, seed=7)
        times = np.concatenate([stack_records(t)[0] for t in corpus])
        state = model.states[0]
        assert times.mean() == pytest.approx(state.mu_t, abs=4 * state.sigma_t / np.sqrt(2000))
        locs = np.concatenate([stack_records(t)[1] for t in corpus])
        np.testing.assert_allclose(locs.mean(axis=0), state.mu_l, atol=0.01)


def corpus_bits(corpus):
    """Every field of every record, with arrays as raw bytes."""
    return [[(r.user_id, r.t_abs, r.t_day, r.loc.tobytes(), r.embedding.tobytes(), r.raw_text)
             for r in trace] for trace in corpus]


def unreachable_last_state(model):
    """The model with its last state never entered: zero initial mass and a
    zero transition column."""
    pi, trans = model.pi.copy(), model.trans.copy()
    pi[-1] = trans[:, -1] = 0.0
    return dataclasses.replace(model, pi=pi / pi.sum(),
                               trans=trans / trans.sum(axis=1, keepdims=True))


def without_vmf_text(model, preset):
    """The model under another preset, each state's vMF text turned into a
    Gaussian text mean and variance (ghmm) or dropped."""
    config = EmissionConfig.preset(preset)
    gaussian = config.text_model == "gaussian"
    states = [dataclasses.replace(
        s, text=GaussianText(s.text.mu, np.full(s.text.p, 0.5)) if gaussian else None)
        for s in model.states]
    return dataclasses.replace(model, states=states, config=config)


class TestSampleCorpusMatchesReference:
    """`sample_corpus` draws emissions through `emission.sample_emissions`;
    the corpus must be bitwise the former inline loop's."""

    @pytest.mark.parametrize("k, p, n_traces, trace_len, seed", [
        (1, 2, 5, 3, 0),
        (3, 6, 20, 7, 5),
        (5, 10, 40, 12, 11),
        (8, 8, 30, 4, 2),
        (30, 30, 60, 20, 7),
    ])
    def test_bitwise_equal(self, k, p, n_traces, trace_len, seed):
        model = planted_model(k, p, seed=seed + 1)
        assert corpus_bits(sample_corpus(model, n_traces, trace_len, seed)) == corpus_bits(
            reference.sample_corpus(model, n_traces, trace_len, seed))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bitwise_equal_with_a_state_that_draws_no_record(self, seed):
        model = unreachable_last_state(planted_model(3, 5, seed=2))
        got = sample_corpus(model, 15, 6, seed)
        embeds = np.concatenate([stack_records(t)[2] for t in got])
        assert np.max(embeds @ model.states[-1].text.mu) < 0.9  # state 2 emitted nothing
        assert corpus_bits(got) == corpus_bits(reference.sample_corpus(model, 15, 6, seed))

    @pytest.mark.parametrize("preset, text_model", [("ghmm", "gaussian"), ("st-hmm", "none")])
    def test_other_text_models_are_rejected_by_name(self, preset, text_model):
        model = without_vmf_text(planted_model(2, 4, seed=3), preset)
        with pytest.raises(ValueError, match=f"text_model 'vmf'.*got '{text_model}'$"):
            sample_corpus(model, 3, 3, seed=0)


class TestExperiments:
    def test_newton_convergence_reaches_floor(self):
        rows = newton_convergence(p=20, kappa=50.0, n=20_000, seed=0)
        assert rows[0][1] == "residual"
        assert rows[-1][2] < 1e-13
        assert len(rows) <= 8

    def test_estimation_vs_n_mean_rows(self):
        rows = estimation_error(
            "estimation_vs_n", grid=(100, 1000), p=10, kappa=20.0, n_seeds=3, seed=0
        )
        means = [(x, v) for x, m, v in rows if m == "kappa_rel_error_mean"]
        assert len(means) == 2
        per_seed = [(x, v) for x, m, v in rows if m == "kappa_rel_error"]
        assert len(per_seed) == 6

    def test_estimation_vs_kappa_small_errors(self):
        rows = estimation_error(
            "estimation_vs_kappa", grid=(10.0, 100.0), p=20, n=20_000, n_seeds=2, seed=1
        )
        errs = [v for _, m, v in rows if m == "kappa_rel_error"]
        assert all(e < 0.05 for e in errs)

    def test_estimation_vs_p_runs(self):
        rows = estimation_error(
            "estimation_vs_p", grid=(2, 10), kappa=20.0, n=10_000, n_seeds=2, seed=2
        )
        assert {m for _, m, _ in rows} == {
            "kappa_rel_error", "mu_cos_error", "kappa_rel_error_mean", "mu_cos_error_mean",
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            estimation_error("newton_convergence")

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_newton_convergence_rejects_dimension_below_two(self, p):
        with pytest.raises(ValueError, match=f"^dimension p must be >= 2, got {p}$"):
            newton_convergence(p=p, n=10)

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_convergence_on_one_sample_raises(self, seed):
        # one unit vector has r_bar = 1 up to rounding: no finite kappa fits it
        with pytest.raises(ValueError, match="needs kappa beyond 1e\\+06"):
            newton_convergence(p=10, n=1, seed=seed)

    @pytest.mark.parametrize("experiment, kwargs, message", [
        ("estimation_vs_p", {"grid": (10, 0)}, "dimension p must be >= 2, got 0"),
        ("estimation_vs_n", {"p": 1}, "dimension p must be >= 2, got 1"),
        ("estimation_vs_n", {"kappa": 0.0}, "kappa must be > 0, got 0.0"),
        ("estimation_vs_kappa", {"grid": (5.0, 0.0)}, "kappa must be > 0, got 0.0"),
        ("estimation_vs_kappa", {"grid": (5.0, -1.0)}, "kappa must be > 0, got -1.0"),
        ("estimation_vs_kappa", {"grid": (5.0, float("nan"))}, "kappa must be > 0, got nan"),
    ])
    def test_bad_grid_point_raises_before_any_draw(self, monkeypatch, experiment, kwargs,
                                                   message):
        calls = []
        monkeypatch.setattr(synth, "_fit_errors", lambda **kw: calls.append(kw))
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimation_error(experiment, n=100, n_seeds=1, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_seed_count_below_one_raises(self, n_seeds):
        with pytest.raises(ValueError, match="^n_seeds must be >= 1"):
            estimation_error("estimation_vs_p", grid=(3,), n=100, n_seeds=n_seeds)


# Small fixed parameters keep every grid point cheap; the swept one is
# overridden by the grid.  Each reference driver names its grid argument
# after its axis.
SMALL = {"p": 3, "kappa": 20.0, "n": 300}


def assert_rows_match_reference(experiment, grid, n_seeds, seed):
    axis = ESTIMATION_GRIDS[experiment][0]
    fixed = {k: v for k, v in SMALL.items() if k != axis}
    ref_kwargs = dict(fixed, seed=seed)
    if grid is not None:
        ref_kwargs[f"{axis}_grid"] = grid
    if n_seeds is not None:
        ref_kwargs["n_seeds"] = n_seeds
    expected = getattr(reference, experiment)(**ref_kwargs)
    got = estimation_error(experiment, grid=grid, n_seeds=n_seeds, seed=seed, **fixed)
    assert got == expected
    assert [type(x) for x, _, _ in got] == [type(x) for x, _, _ in expected]


@pytest.mark.parametrize("experiment", sorted(ESTIMATION_GRIDS))
class TestEstimationMatchesReference:
    def test_default_grid_and_seeds(self, experiment):
        assert_rows_match_reference(experiment, None, None, seed=0)

    def test_user_grid(self, experiment):
        # Float strings as the CLI parses them, cast back per axis.
        assert_rows_match_reference(experiment, [4.0, 7.5, 40.0], 2, seed=5)

    def test_one_seed(self, experiment):
        assert_rows_match_reference(experiment, None, 1, seed=11)
