"""The all-states M-step against the per-state loop it replaced.

`emission.m_step_state` over an (N, K) gamma and `vmf.fit_vmf` over
(N, K) weights must give, state by state and array by array, what one
call per column of `tests/_mstep_reference.py` gives, within 1e-12
relative to the largest entry of each array.
"""

import logging

import numpy as np
import pytest

from _helpers import unit
from _mstep_reference import fit_vmf as fit_vmf_reference
from _mstep_reference import m_step_states as m_step_reference
from shmm import emission, hmm_core
from shmm.emission import (
    DEAD_STATE_WEIGHT,
    EmissionConfig,
    GaussianText,
    m_step_state,
)
from shmm.hmm_core import KMeansInit, StopCriteria, baum_welch
from shmm.records import Corpus
from shmm.synth import planted_model, sample_corpus
from shmm.vmf import (
    KAPPA_MAX,
    DegenerateResultantWarning,
    EmptyInputError,
    NearUniformWarning,
    VmfParams,
    fit_vmf,
)

RTOL = 1e-12
PRESETS = ["shmm", "ghmm", "st-hmm", "hmm"]


def assert_close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(got - want)))
    assert err <= RTOL * scale, f"{what}: error {err:.3g} against scale {scale:.3g}"


def assert_states_match(got, want):
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        if b is None:
            assert a is None, f"state {j} should be dead"
            continue
        for name in ("mu_t", "sigma_t", "mu_l", "cov_l"):
            assert_close(getattr(a, name), getattr(b, name), f"state {j} {name}")
        assert type(a.text) is type(b.text), f"state {j} text"
        if isinstance(b.text, VmfParams):
            assert_close(a.text.mu, b.text.mu, f"state {j} text mu")
            assert_close(a.text.kappa, b.text.kappa, f"state {j} kappa")
        elif isinstance(b.text, GaussianText):
            assert_close(a.text.mean, b.text.mean, f"state {j} text mean")
            assert_close(a.text.var, b.text.var, f"state {j} text var")


def records(n, p, rng, centre=(1000.0, -2000.0), spread=300.0):
    """Records in four loose clusters: times over the day, projected
    meters around centre, unit embeddings around four directions."""
    cluster = rng.integers(4, size=n)
    times = rng.uniform(20000.0, 70000.0, size=n) + 3000.0 * cluster
    locs = np.asarray(centre) + spread * (rng.standard_normal((n, 2)) + 3.0 * cluster[:, None])
    directions = np.array([unit(rng.standard_normal(p)) for _ in range(4)])
    embeds = directions[cluster] * 4.0 + rng.standard_normal((n, p))
    embeds /= np.linalg.norm(embeds, axis=1, keepdims=True)
    return times, locs, embeds


def fractional(n, k, rng):
    return rng.dirichlet(np.full(k, 0.5), size=n)


def one_hot(n, k, rng):
    labels = np.concatenate([np.arange(k), rng.integers(k, size=n - k)])
    gamma = np.zeros((n, k))
    gamma[np.arange(n), labels] = 1.0
    return gamma


def both(times, locs, embeds, gamma, config):
    return (m_step_state(times, locs, embeds, gamma, config),
            m_step_reference(times, locs, embeds, gamma, config))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("make_gamma", [fractional, one_hot])
def test_every_preset_matches_the_per_state_loop(preset, make_gamma):
    rng = np.random.default_rng(1)
    times, locs, embeds = records(600, 6, rng)
    got, want = both(times, locs, embeds, make_gamma(600, 5, rng), EmissionConfig.preset(preset))
    assert_states_match(got, want)


@pytest.mark.parametrize("preset", PRESETS)
def test_one_state(preset):
    rng = np.random.default_rng(2)
    times, locs, embeds = records(300, 4, rng)
    gamma = rng.uniform(0.0, 1.0, size=(300, 1))
    got, want = both(times, locs, embeds, gamma, EmissionConfig.preset(preset))
    assert_states_match(got, want)


@pytest.mark.parametrize("dead", [[2], [0, 3], [0, 1, 2, 3]])
@pytest.mark.parametrize("preset", ["shmm", "ghmm"])
def test_dead_columns_are_none_in_their_slots(preset, dead):
    rng = np.random.default_rng(3)
    times, locs, embeds = records(400, 5, rng)
    gamma = fractional(400, 4, rng)
    gamma[:, dead] = 0.0
    gamma[7, dead[-1]] = 0.99 * DEAD_STATE_WEIGHT
    got, want = both(times, locs, embeds, gamma, EmissionConfig.preset(preset))
    assert [j for j, s in enumerate(got) if s is None] == dead
    assert_states_match(got, want)


@pytest.mark.parametrize("preset", ["shmm", "ghmm"])
def test_scaling_gamma_changes_nothing(preset):
    rng = np.random.default_rng(4)
    times, locs, embeds = records(500, 5, rng)
    gamma = fractional(500, 4, rng)
    config = EmissionConfig.preset(preset)
    once = m_step_state(times, locs, embeds, gamma, config)
    assert_states_match(m_step_state(times, locs, embeds, 2.0 * gamma, config), once)
    assert_states_match(once, m_step_reference(times, locs, embeds, 2.0 * gamma, config))


@pytest.mark.parametrize("make_gamma", [fractional, one_hot])
def test_projected_meters_with_sub_meter_spread(make_gamma):
    # E[x^2] - m^2 would lose every digit of these variances
    rng = np.random.default_rng(5)
    times, locs, embeds = records(800, 4, rng, centre=(4.5e6, 9.1e6), spread=0.05)
    got, want = both(times, locs, embeds, make_gamma(800, 4, rng), EmissionConfig.st_hmm())
    assert all(0.001 < s.cov_l[0, 0] < 1.0 for s in want)
    assert_states_match(got, want)


def test_vanished_and_capped_resultants():
    rng = np.random.default_rng(6)
    times, locs, embeds = records(200, 3, rng)
    embeds[1] = -embeds[0]
    embeds[3] = embeds[2]
    gamma = fractional(200, 4, rng)
    gamma[:4, :] = 0.0
    gamma[:, 1:3] = 0.0
    gamma[[0, 1], 1] = 1.0  # antipodal pair: the resultant vanishes
    gamma[[2, 3], 2] = 1.0  # identical pair: r_bar = 1
    config = EmissionConfig.shmm()
    with pytest.warns(NearUniformWarning), pytest.warns(DegenerateResultantWarning):
        got = m_step_state(times, locs, embeds, gamma, config)
    with pytest.warns(NearUniformWarning), pytest.warns(DegenerateResultantWarning):
        want = m_step_reference(times, locs, embeds, gamma, config)
    np.testing.assert_array_equal(got[1].text.mu, [1.0, 0.0, 0.0])
    assert got[1].text.kappa == 0.0
    assert got[2].text.kappa == KAPPA_MAX
    assert_states_match(got, want)


def test_one_column_is_the_same_code():
    rng = np.random.default_rng(7)
    times, locs, embeds = records(300, 4, rng)
    gamma = fractional(300, 3, rng)
    config = EmissionConfig.shmm()
    states = m_step_state(times, locs, embeds, gamma, config)
    for j in range(3):
        assert_states_match([m_step_state(times, locs, embeds, gamma[:, j:j + 1], config)[0]],
                            [states[j]])
    assert m_step_state(times, locs, embeds, np.zeros(300)[:, None], config) == [None]


def _bad_gamma(case, gamma):
    if case == "one-state-vector":
        return gamma[:, 0]
    if case == "wrong-n":
        return gamma[:-1]
    gamma = gamma.copy()
    gamma[5, 1] = {"negative": -1e-9, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[case]
    return gamma


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("case, message", [
    ("one-state-vector", r"gamma must be \(N, K\) with N = 40, got shape \(40,\)"),
    ("wrong-n", r"gamma must be \(N, K\) with N = 40, got shape \(39, 3\)"),
    ("negative", "responsibilities must be finite and >= 0"),
    ("nan", "responsibilities must be finite and >= 0"),
    ("inf", "responsibilities must be finite and >= 0"),
    ("-inf", "responsibilities must be finite and >= 0"),
])
def test_bad_responsibilities_are_refused_before_any_work(monkeypatch, preset, case, message):
    # before, only shmm refused a negative entry (in fit_vmf), the other
    # presets fitted states from it, and a NaN column came back dead
    def no_work(*args, **kwargs):
        raise AssertionError("the M-step ran")

    monkeypatch.setattr(emission, "_centered_moments", no_work)
    monkeypatch.setattr(emission, "fit_vmf", no_work)
    rng = np.random.default_rng(13)
    times, locs, embeds = records(40, 4, rng)
    gamma = _bad_gamma(case, fractional(40, 3, rng))
    with pytest.raises(ValueError, match=f"^{message}$"):
        m_step_state(times, locs, embeds, gamma, EmissionConfig.preset(preset))


class TestFitVmfColumns:
    def test_columns_match_single_fits(self):
        rng = np.random.default_rng(8)
        _, _, embeds = records(400, 7, rng)
        weights = fractional(400, 5, rng)
        fits = fit_vmf(embeds, weights)
        assert len(fits) == 5
        for j, fit in enumerate(fits):
            want = fit_vmf_reference(embeds, weights[:, j])
            assert_close(fit.mu, want.mu, f"column {j} mu")
            assert_close(fit.kappa, want.kappa, f"column {j} kappa")

    def test_one_dimensional_weights_give_one_fit(self):
        rng = np.random.default_rng(9)
        _, _, embeds = records(100, 4, rng)
        assert isinstance(fit_vmf(embeds, np.ones(100)), VmfParams)
        assert isinstance(fit_vmf(embeds), VmfParams)

    def test_a_column_without_weight_is_refused(self):
        rng = np.random.default_rng(10)
        _, _, embeds = records(50, 3, rng)
        weights = np.ones((50, 3))
        weights[:, 1] = 0.0
        with pytest.raises(EmptyInputError):
            fit_vmf(embeds, weights)

    @pytest.mark.parametrize("shape", [(49, 2), (50, 2, 1), ()])
    def test_weights_of_another_shape_are_refused(self, shape):
        rng = np.random.default_rng(11)
        _, _, embeds = records(50, 3, rng)
        with pytest.raises(ValueError, match="weights must be"):
            fit_vmf(embeds, np.ones(shape))

    def test_unit_norm_is_checked_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        _, _, embeds = records(60, 3, rng)
        calls = []
        norm = np.linalg.norm

        def counting_norm(x, *args, **kwargs):
            if np.ndim(x) == 2:
                calls.append(np.shape(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        fit_vmf(embeds, fractional(60, 4, rng))
        assert calls == [(60, 3)]


class TestCallers:
    @pytest.fixture
    def corpus(self):
        return Corpus(sample_corpus(planted_model(4, 5, seed=13), 40, 8, seed=14))

    def test_one_m_step_and_one_vmf_fit_per_pass(self, corpus, monkeypatch):
        calls = []
        m_step, fit = hmm_core.m_step_state, emission.fit_vmf

        def counting_m_step(times, locs, embeds, gamma, config):
            calls.append(("m_step", gamma.shape))
            return m_step(times, locs, embeds, gamma, config)

        def counting_fit(vectors, weights=None):
            calls.append(("fit_vmf", np.shape(weights)))
            return fit(vectors, weights)

        monkeypatch.setattr(hmm_core, "m_step_state", counting_m_step)
        monkeypatch.setattr(emission, "fit_vmf", counting_fit)
        baum_welch(corpus, 4, EmissionConfig.shmm(), init=KMeansInit(seed=0),
                   stop=StopCriteria(rel_tol=0.0, max_iters=2))
        n = len(corpus.t_day)
        assert calls == [("m_step", (n, 4)), ("fit_vmf", (n, 4))] * 3

    def test_init_equals_the_per_cluster_loop(self, corpus):
        config = EmissionConfig.ghmm()
        model = hmm_core._init_from_kmeans(corpus, 4, config, KMeansInit(seed=0))
        labels = hmm_core._kmeans_locations(corpus.locs, 4, 0, 100)
        gamma = (labels[:, None] == np.arange(4)).astype(float)
        assert_states_match(model.states, m_step_reference(corpus.t_day, corpus.locs,
                                                           corpus.embeds, gamma, config))

    @pytest.mark.filterwarnings("ignore::shmm.vmf.DegenerateResultantWarning")
    def test_reseeds_are_logged_once_per_iteration(self, caplog):
        # one record leaves two of three states dead in every iteration
        model_true = planted_model(3, 4, seed=1)
        corpus = sample_corpus(model_true, 1, 1, seed=2)
        with caplog.at_level(logging.INFO, logger="shmm.hmm_core"):
            baum_welch(corpus, 3, EmissionConfig.shmm(), init=model_true,
                       stop=StopCriteria(max_iters=3, rel_tol=0.0))
        lines = [r.getMessage() for r in caplog.records if "re-seeded" in r.getMessage()]
        assert len(lines) == 3
        assert lines[0].startswith("EM iteration 0 re-seeded dead states [")

    def test_no_ranking_without_a_dead_state(self, corpus, monkeypatch):
        ranked = []
        worst = hmm_core._worst_explained

        def recording(log_b_all):
            ranked.append(log_b_all.shape)
            return worst(log_b_all)

        monkeypatch.setattr(hmm_core, "_worst_explained", recording)
        baum_welch(corpus, 4, EmissionConfig.shmm(), init=KMeansInit(seed=0),
                   stop=StopCriteria(rel_tol=0.0, max_iters=2))
        assert ranked == []
