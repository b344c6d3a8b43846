"""Tests for the multi-modal emission model and its M-step."""

import math
import re

import numpy as np
import pytest

from _emission_reference import (
    reference_log_emission_matrix,
    vectorized_log_emission_matrix,
    vectorized_vmf_log_density,
)
from shmm.emission import (
    EmissionConfig,
    EmptyStateError,
    GaussianText,
    StateParams,
    log_emission,
    log_emission_matrix,
    m_step_state,
    text_direction,
)
from shmm.records import SemanticRecord
from shmm.vmf import VmfParams, vmf_log_density


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def make_record(t_day=43200.0, loc=(0.0, 0.0), embedding=None, p=3):
    if embedding is None:
        embedding = unit(np.arange(1, p + 1))
    return SemanticRecord(
        user_id="u", t_abs=0.0, t_day=t_day, loc=np.asarray(loc, float), embedding=embedding
    )


def text_for(config, vmf, gaussian):
    """The one of the two text models that config.text_model names, or None."""
    return {"vmf": vmf, "gaussian": gaussian}.get(config.text_model)


def make_state(p=3, kappa=2.0, seed=0, config=EmissionConfig.shmm()):
    rng = np.random.default_rng(seed)
    mu = unit(rng.standard_normal(p))
    return StateParams(
        mu_t=40000.0,
        sigma_t=3600.0,
        mu_l=np.array([0.5, -0.2]),
        cov_l=np.array([[0.04, 0.01], [0.01, 0.09]]),
        text=text_for(config, VmfParams(mu=mu, kappa=kappa, p=p),
                      GaussianText(mean=mu, var=np.full(p, 0.1))),
    )


def weighted_loglik(state, config, times, locs, embeds, gamma):
    return float(gamma @ log_emission_matrix([state], config, times, locs, embeds)[:, 0])


PRESETS = ["shmm", "ghmm", "st-hmm", "hmm"]


def random_states(k, p, rng, config):
    """k random states with the text config.text_model asks for.  Both text
    models are drawn whatever the config, so the draws do not depend on it."""
    states = []
    for _ in range(k):
        root = rng.standard_normal((2, 2))
        mu = unit(rng.standard_normal(p))
        mu_t = float(rng.uniform(0, 86400))
        sigma_t = float(rng.uniform(60, 7200))
        mu_l = rng.standard_normal(2)
        vmf = VmfParams(mu=mu, kappa=float(rng.uniform(0, 200)), p=p)
        gaussian = GaussianText(mean=rng.standard_normal(p) * 0.3,
                                var=rng.uniform(0.01, 2.0, size=p))
        states.append(StateParams(
            mu_t=mu_t,
            sigma_t=sigma_t,
            mu_l=mu_l,
            cov_l=root @ root.T + 0.01 * np.eye(2),
            text=text_for(config, vmf, gaussian),
        ))
    return states


def random_records(n, p, rng):
    times = rng.uniform(0, 86400, size=n)
    locs = rng.standard_normal((n, 2)) * 2.0
    embeds = rng.standard_normal((n, p))
    embeds /= np.linalg.norm(embeds, axis=1, keepdims=True)
    return times, locs, embeds


def assert_matches_reference(states, config, times, locs, embeds):
    before = [a.tobytes() for a in (times, locs, embeds)]
    got = log_emission_matrix(states, config, times, locs, embeds)
    # the in-place pass gives the bits of the one-expression pass it
    # replaced, and leaves its inputs as they were
    vectorized = vectorized_log_emission_matrix(states, config, times, locs, embeds)
    assert got.tobytes() == vectorized.tobytes()
    assert [a.tobytes() for a in (times, locs, embeds)] == before
    ref = reference_log_emission_matrix(states, config, times, locs, embeds)
    assert got.shape == ref.shape == (len(times), len(states))
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    rel = 1e-10 if config.text_model == "gaussian" else 1e-12
    err = np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
    assert err.max(initial=0.0) <= rel
    return got


class TestLogEmission:
    def test_location_only_standard_normal_mode(self):
        state = StateParams(
            mu_t=0.0, sigma_t=60.0, mu_l=np.zeros(2), cov_l=np.eye(2)
        )
        config = EmissionConfig(use_time=False, use_location=True, text_model="none")
        rec = make_record(loc=(0.0, 0.0))
        assert log_emission(state, config, rec) == pytest.approx(
            -math.log(2.0 * math.pi), abs=1e-12
        )

    def test_uniform_text_contributes_log_4pi(self):
        state = make_state(p=3)
        state.text = VmfParams(mu=state.text.mu, kappa=0.0, p=3)
        rec = make_record(p=3)
        full = EmissionConfig.shmm()
        no_text = EmissionConfig.st_hmm()
        assert log_emission(state, full, rec) == pytest.approx(
            log_emission(state, no_text, rec) - math.log(4.0 * math.pi), abs=1e-12
        )

    def test_modalities_are_additive(self):
        state = make_state(p=4, seed=3)
        rec = make_record(t_day=30000.0, loc=(0.4, -0.1), embedding=unit([1, -2, 0.5, 1]), p=4)
        full = log_emission(state, EmissionConfig.shmm(), rec)
        t_only = log_emission(
            state, EmissionConfig(use_time=True, use_location=False, text_model="none"), rec
        )
        l_only = log_emission(
            state, EmissionConfig(use_time=False, use_location=True, text_model="none"), rec
        )
        m_only = log_emission(
            state, EmissionConfig(use_time=False, use_location=False, text_model="vmf"), rec
        )
        assert full == pytest.approx(t_only + l_only + m_only, abs=1e-12)

    def test_gaussian_text_baseline(self):
        config = EmissionConfig(use_time=False, use_location=False, text_model="gaussian")
        state = make_state(p=3, seed=5, config=config)
        rec = make_record(p=3)
        got = log_emission(state, config, rec)
        expected = sum(
            -0.5 * math.log(2.0 * math.pi * v) - (x - m) ** 2 / (2.0 * v)
            for x, m, v in zip(rec.embedding, state.text.mean, state.text.var)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        states = [make_state(p=3, seed=i) for i in range(3)]
        recs = [
            make_record(
                t_day=float(rng.uniform(0, 86400)),
                loc=rng.standard_normal(2),
                embedding=unit(rng.standard_normal(3)),
            )
            for _ in range(5)
        ]
        config = EmissionConfig.shmm()
        times = np.array([r.t_day for r in recs])
        locs = np.array([r.loc for r in recs])
        embeds = np.array([r.embedding for r in recs])
        mat = log_emission_matrix(states, config, times, locs, embeds)
        for i, rec in enumerate(recs):
            for k, state in enumerate(states):
                assert mat[i, k] == pytest.approx(log_emission(state, config, rec), abs=1e-12)

    def test_finite_for_valid_inputs(self):
        rng = np.random.default_rng(11)
        config = EmissionConfig.shmm()
        for i in range(20):
            state = make_state(p=5, kappa=float(rng.uniform(0, 1e4)), seed=100 + i)
            rec = make_record(
                t_day=float(rng.uniform(0, 86400)),
                loc=rng.standard_normal(2) * 10,
                embedding=unit(rng.standard_normal(5)),
                p=5,
            )
            assert math.isfinite(log_emission(state, config, rec))


class TestAllStatesMatrix:
    """The vectorized (N, K) pass against the former per-state helpers."""

    @pytest.mark.parametrize("preset", PRESETS)
    def test_matches_reference(self, preset):
        rng = np.random.default_rng(20)
        config = EmissionConfig.preset(preset)
        states = random_states(7, 5, rng, config)
        assert_matches_reference(states, config, *random_records(60, 5, rng))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_single_state_single_record(self, preset):
        rng = np.random.default_rng(21)
        config = EmissionConfig.preset(preset)
        states = random_states(1, 4, rng, config)
        got = assert_matches_reference(states, config, *random_records(1, 4, rng))
        assert got.shape == (1, 1)

    def test_uniform_vmf_state(self):
        rng = np.random.default_rng(22)
        states = random_states(3, 6, rng, EmissionConfig.shmm())
        states[1].text = VmfParams(mu=states[1].text.mu, kappa=0.0, p=6)
        times, locs, embeds = random_records(9, 6, rng)
        got = assert_matches_reference(states, EmissionConfig.shmm(), times, locs, embeds)
        text_only = EmissionConfig(use_time=False, use_location=False, text_model="vmf")
        uniform = log_emission_matrix(states, text_only, times, locs, embeds)[:, 1]
        np.testing.assert_array_equal(uniform, uniform[0])
        assert np.all(np.isfinite(got))

    def test_vmf_term_is_the_vmf_density(self):
        rng = np.random.default_rng(23)
        text_only = EmissionConfig(use_time=False, use_location=False, text_model="vmf")
        states = random_states(5, 7, rng, text_only)
        times, locs, embeds = random_records(40, 7, rng)
        params = [s.text for s in states]
        np.testing.assert_array_equal(
            log_emission_matrix(states, text_only, times, locs, embeds),
            vmf_log_density(params, embeds),
        )
        assert (vmf_log_density(params, embeds).tobytes()
                == vectorized_vmf_log_density(params, embeds).tobytes())

    @pytest.mark.parametrize("preset", PRESETS)
    def test_far_record_gives_minus_inf_in_the_same_cells(self, preset):
        rng = np.random.default_rng(23)
        config = EmissionConfig.preset(preset)
        states = random_states(4, 3, rng, config)
        times, locs, embeds = random_records(5, 3, rng)
        locs[2] = (1e200, 0.0)
        with np.errstate(over="ignore"):
            got = assert_matches_reference(states, config, times, locs, embeds)
        assert np.all(np.isneginf(got[2]))
        assert np.all(np.isfinite(np.delete(got, 2, axis=0)))

    def test_gaussian_text_at_the_variance_floor(self):
        rng = np.random.default_rng(24)
        states = random_states(3, 8, rng, EmissionConfig.ghmm())
        times, locs, embeds = random_records(6, 8, rng)
        for state in states:
            state.text = GaussianText(state.text.mean, np.full(8, EmissionConfig.ghmm().var_floor))
        states[0].text = GaussianText(embeds[4].copy(), states[0].text.var)
        got = assert_matches_reference(states, EmissionConfig.ghmm(), times, locs, embeds)
        assert got[4, 0] == got[:, 0].max()

    def test_non_positive_definite_covariance_names_the_state(self):
        rng = np.random.default_rng(25)
        states = random_states(4, 3, rng, EmissionConfig.shmm())
        states[2].cov_l = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="state 2 is not positive definite"):
            log_emission_matrix(states, EmissionConfig.shmm(), *random_records(3, 3, rng))
        with pytest.raises(ValueError, match="state 0 is not positive definite"):
            log_emission(states[2], EmissionConfig.hmm(), make_record())

    def test_nan_time_raises(self):
        rng = np.random.default_rng(26)
        states = random_states(3, 3, rng, EmissionConfig.st_hmm())
        times, locs, embeds = random_records(4, 3, rng)
        times[1] = np.nan
        with pytest.raises(ValueError, match="non-finite emission log-density for record 1"):
            log_emission_matrix(states, EmissionConfig.st_hmm(), times, locs, embeds)


class TestEmissionConfig:
    def test_requires_a_modality(self):
        with pytest.raises(ValueError):
            EmissionConfig(use_time=False, use_location=False, text_model="none")

    @pytest.mark.parametrize("field, value, message", [
        ("use_time", "no", "use_time must be true or false, got 'no'"),
        ("use_location", 0, "use_location must be true or false, got 0"),
        ("use_time", np.bool_(True), "use_time must be true or false, got "),
        ("sigma_t_floor", True, "sigma_t_floor must be a number, got True"),
        ("var_floor", "1e-6", "var_floor must be a number, got '1e-6'"),
    ])
    def test_rejects_mistyped_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            EmissionConfig(**{field: value})

    def test_floors_may_be_any_real_number(self):
        config = EmissionConfig(sigma_t_floor=60, var_floor=np.float64(1e-6))
        assert config.sigma_t_floor == 60.0 and config.var_floor == 1e-6

    def test_rejects_unknown_text_model(self):
        with pytest.raises(ValueError):
            EmissionConfig(text_model="multinomial")

    def test_presets(self):
        assert EmissionConfig.preset("hmm") == EmissionConfig(
            use_time=False, use_location=True, text_model="none"
        )
        assert EmissionConfig.preset("st-hmm").text_model == "none"
        assert EmissionConfig.preset("ghmm").text_model == "gaussian"
        assert EmissionConfig.preset("shmm").text_model == "vmf"
        with pytest.raises(ValueError):
            EmissionConfig.preset("gmove")


class TestTextDirection:
    """The state's one text model gives its direction, and a kappa for vMF text."""

    def test_vmf_gives_mean_direction_and_kappa(self):
        state = make_state(p=4, kappa=7.5)
        direction, kappa = text_direction(state, EmissionConfig.shmm())
        assert direction is state.text.mu
        assert kappa == 7.5 and type(kappa) is float

    def test_gaussian_gives_text_mean_and_no_kappa(self):
        state = make_state(p=4, config=EmissionConfig.ghmm())
        assert text_direction(state, EmissionConfig.ghmm()) == (state.text.mean, None)

    @pytest.mark.parametrize("preset", ["st-hmm", "hmm"])
    def test_no_text_gives_nothing(self, preset):
        config = EmissionConfig.preset(preset)
        assert text_direction(make_state(p=4, config=config), config) == (None, None)


class TestMStep:
    def _data(self, n=200, p=4, seed=0):
        rng = np.random.default_rng(seed)
        times = rng.uniform(20000.0, 60000.0, size=n)
        locs = rng.standard_normal((n, 2)) * np.array([0.5, 0.3]) + np.array([1.0, -2.0])
        embeds = np.array([unit(rng.standard_normal(p) + 2.0) for _ in range(n)])
        gamma = rng.uniform(0.1, 1.0, size=n)
        return times, locs, embeds, gamma

    def test_single_point_degeneracy_floors(self):
        config = EmissionConfig.shmm()
        times = np.array([1000.0, 50000.0])
        locs = np.array([[0.1, 0.2], [5.0, 5.0]])
        embeds = np.stack([unit([1, 0, 0]), unit([0, 1, 0])])
        gamma = np.array([1.0, 0.0])
        with pytest.warns(UserWarning):  # r_bar = 1 caps kappa
            state = m_step_state(times, locs, embeds, gamma, config)
        assert state.mu_t == 1000.0
        assert state.sigma_t == config.sigma_t_floor
        np.testing.assert_allclose(state.cov_l, config.var_floor * np.eye(2), atol=1e-18)
        np.testing.assert_allclose(state.mu_l, [0.1, 0.2])

    def test_uniform_gamma_matches_direct_moments(self):
        times, locs, embeds, _ = self._data(seed=1)
        gamma = np.ones(len(times))
        config = EmissionConfig.shmm()
        state = m_step_state(times, locs, embeds, gamma, config)
        assert state.mu_t == pytest.approx(times.mean(), rel=1e-12)
        assert state.sigma_t == pytest.approx(times.std(), rel=1e-12)
        np.testing.assert_allclose(state.mu_l, locs.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            state.cov_l, np.cov(locs.T, bias=True), rtol=1e-10, atol=1e-12
        )

    def test_gamma_scale_invariance(self):
        times, locs, embeds, gamma = self._data(seed=2)
        config = EmissionConfig.shmm()
        a = m_step_state(times, locs, embeds, gamma, config)
        b = m_step_state(times, locs, embeds, 2.0 * gamma, config)
        assert a.mu_t == pytest.approx(b.mu_t, rel=1e-12)
        assert a.sigma_t == pytest.approx(b.sigma_t, rel=1e-12)
        np.testing.assert_allclose(a.cov_l, b.cov_l, rtol=1e-12)
        np.testing.assert_allclose(a.text.mu, b.text.mu, rtol=1e-12)
        assert a.text.kappa == pytest.approx(b.text.kappa, rel=1e-12)

    def test_empty_state_raises(self):
        times, locs, embeds, _ = self._data(n=10, seed=3)
        with pytest.raises(EmptyStateError):
            m_step_state(times, locs, embeds, np.zeros(10), EmissionConfig.shmm())

    def test_dead_state_threshold(self):
        from shmm.emission import DEAD_STATE_WEIGHT

        times, locs, embeds, _ = self._data(n=10, seed=3)
        gamma = np.zeros(10)
        gamma[4] = DEAD_STATE_WEIGHT
        m_step_state(times, locs, embeds, gamma, EmissionConfig.hmm())
        gamma[4] = 0.99 * DEAD_STATE_WEIGHT
        with pytest.raises(EmptyStateError):
            m_step_state(times, locs, embeds, gamma, EmissionConfig.hmm())

    @pytest.mark.parametrize("config", [EmissionConfig.shmm(), EmissionConfig.ghmm()])
    def test_m_step_is_a_local_maximum(self, config):
        times, locs, embeds, gamma = self._data(n=300, p=4, seed=4)
        state = m_step_state(times, locs, embeds, gamma, config)
        base = weighted_loglik(state, config, times, locs, embeds, gamma)

        def perturbed(**kw):
            fields = dict(
                mu_t=state.mu_t,
                sigma_t=state.sigma_t,
                mu_l=state.mu_l.copy(),
                cov_l=state.cov_l.copy(),
                text=state.text,
            )
            fields.update(kw)
            return StateParams(**fields)

        candidates = [
            perturbed(mu_t=state.mu_t * 1.01),
            perturbed(mu_t=state.mu_t * 0.99),
            perturbed(sigma_t=state.sigma_t * 1.01),
            perturbed(sigma_t=state.sigma_t * 0.99),
            perturbed(mu_l=state.mu_l * 1.01),
            perturbed(mu_l=state.mu_l * 0.99),
            perturbed(cov_l=state.cov_l * 1.01),
            perturbed(cov_l=state.cov_l * 0.99),
        ]
        if config.text_model == "vmf":
            kp, km = state.text.kappa * 1.01, state.text.kappa * 0.99
            candidates += [
                perturbed(text=VmfParams(mu=state.text.mu, kappa=kp, p=state.text.p)),
                perturbed(text=VmfParams(mu=state.text.mu, kappa=km, p=state.text.p)),
            ]
            # geodesic nudges of the mean direction
            rng = np.random.default_rng(9)
            for _ in range(4):
                tangent = rng.standard_normal(state.text.p)
                tangent -= (tangent @ state.text.mu) * state.text.mu
                tangent /= np.linalg.norm(tangent)
                for angle in (0.01, -0.01):
                    mu_new = math.cos(angle) * state.text.mu + math.sin(angle) * tangent
                    mu_new /= np.linalg.norm(mu_new)
                    candidates.append(
                        perturbed(text=VmfParams(mu=mu_new, kappa=state.text.kappa, p=state.text.p))
                    )
        else:
            mean, var = state.text.mean, state.text.var
            candidates += [
                perturbed(text=GaussianText(mean * 1.01, var)),
                perturbed(text=GaussianText(mean * 0.99, var)),
                perturbed(text=GaussianText(mean, var * 1.01)),
                perturbed(text=GaussianText(mean, var * 0.99)),
            ]
        for cand in candidates:
            value = weighted_loglik(cand, config, times, locs, embeds, gamma)
            assert value <= base + 1e-9 * abs(base)
