"""How many (N, K) arrays the E-step and the EM loop hold at once.

numpy reports its data buffers to tracemalloc, so the traced peak of a
call counts the arrays it holds at once.  Bounds are in units of one
N*K*8-byte array, on a fixed corpus of N = 4000 records and K = 20 states,
whose forward-backward scratch block (sizes[0] * K * K * 8 bytes, sizes[0]
the number of traces) is one unit as well.
"""

import tracemalloc

import numpy as np
import pytest

from shmm import hmm_core, synth
from shmm.emission import EmissionConfig, log_emission_matrix
from shmm.hmm_core import KMeansInit, StopCriteria, baum_welch

K, N_TRACES, LENGTH = 20, 200, 20
UNIT = N_TRACES * LENGTH * K * 8
SCRATCH = N_TRACES * K * K * 8


@pytest.fixture(scope="module")
def fit_inputs():
    planted = synth.planted_model(K, 30, seed=3)
    corpus = synth.sample_corpus(planted, N_TRACES, LENGTH, seed=4)
    bundle = hmm_core._bundle_corpus(corpus)
    model = hmm_core._init_from_kmeans(bundle, K, EmissionConfig.shmm(), KMeansInit(seed=0))
    return corpus, bundle, model


def _peak_units(fn, *args, **kwargs) -> float:
    """Traced peak of one call, in N*K*8-byte arrays."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / UNIT
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset", ["shmm", "ghmm", "st-hmm", "hmm"])
def test_emission_matrix_holds_its_output_and_three_temporaries(fit_inputs, preset):
    # the one-expression form peaked at 6.1 to 7.5 units here
    _, bundle, model = fit_inputs
    config = EmissionConfig.preset(preset)
    states = hmm_core._init_from_kmeans(bundle, K, config, KMeansInit(seed=0)).states
    peak = _peak_units(log_emission_matrix, states, config, bundle.times, bundle.locs,
                       bundle.embeds)
    assert peak <= 4.5


def test_forward_backward_holds_three_arrays_and_the_scratch_block(fit_inputs):
    # the packed emission copy, alpha turned into gamma, and gamma in corpus
    # order; the full-beta pass peaked at 6.4 units plus the scratch block
    _, bundle, model = fit_inputs
    log_b = log_emission_matrix(model.states, model.config, bundle.times, bundle.locs,
                                bundle.embeds)
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    peak = _peak_units(hmm_core._forward_backward, log_pi, log_a, log_b, bundle.packing)
    assert peak <= 3.0 + SCRATCH / UNIT


def test_em_iterations_hold_nothing_into_the_next_e_step(fit_inputs):
    # keeping an iteration's gamma and emission matrix alive through the
    # next E-step added two units
    corpus, _, model = fit_inputs
    peaks = [
        _peak_units(baum_welch, corpus, K, model.config, init=model,
                    stop=StopCriteria(rel_tol=0.0, max_iters=max_iters))
        for max_iters in (1, 3)
    ]
    assert peaks[1] <= peaks[0] + 1.0
