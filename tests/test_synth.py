"""Tests for the planted-model generator and experiment drivers."""

import numpy as np
import pytest

import _synth_reference as reference
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
