"""What a fit holds: the corpus columns once, and how many (N, K) arrays
the E-step, the M-step and the EM loop hold at once.

numpy reports its data buffers to tracemalloc, so the traced peak of a
call counts the arrays it holds at once.  Bounds are in units of one
N*K*8-byte array, on a fixed corpus of N = 4000 records and K = 20 states.
The E-step's other buffers are blocks of a fixed byte budget: the
emission matrix's temporaries of `emission.BLOCK_BYTES` (0.41 units
here) and forward-backward's work block of (rows + 1) * K * K * 8 bytes,
rows = `hmm_core.FB_BLOCK_BYTES` // (8 * K * K) (0.82 units here; the
single block it replaced, sizes[0] * K * K * 8 bytes for sizes[0] traces,
was one unit here and grew with the number of traces).  The whole-fit
and many-traces bounds are in units of each of their own shapes.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from shmm import cli, data_io, hmm_core, synth
from shmm.cli import main
from shmm.emission import EmissionConfig, log_emission_matrix, m_step_state
from shmm.hmm_core import KMeansInit, StopCriteria, baum_welch
from shmm.records import Corpus, CorpusColumns, SemanticRecord

K, N_TRACES, LENGTH = 20, 200, 20
UNIT = N_TRACES * LENGTH * K * 8
BLOCK = (hmm_core.FB_BLOCK_BYTES // (8 * K * K) + 1) * K * K * 8


@pytest.fixture(scope="module")
def fit_inputs():
    planted = synth.planted_model(K, 30, seed=3)
    corpus = synth.sample_corpus(planted, N_TRACES, LENGTH, seed=4)
    columns = Corpus(corpus)
    model = hmm_core._init_from_kmeans(columns, K, EmissionConfig.shmm(), KMeansInit(seed=0))
    return corpus, columns, model


def _peak_bytes(fn, *args, **kwargs) -> int:
    """Traced peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_units(fn, *args, **kwargs) -> float:
    """Traced peak of one call, in N*K*8-byte arrays of the fixed corpus."""
    return _peak_bytes(fn, *args, **kwargs) / UNIT


@pytest.mark.parametrize("preset", ["shmm", "ghmm", "st-hmm", "hmm"])
def test_emission_matrix_holds_its_output_and_three_temporaries(fit_inputs, preset):
    # three block-sized temporaries: 2.34 to 2.37 units here; three (N, K)
    # temporaries peaked at 4.1, and the one-expression form at 6.1 to 7.5
    _, columns, model = fit_inputs
    config = EmissionConfig.preset(preset)
    states = hmm_core._init_from_kmeans(columns, K, config, KMeansInit(seed=0)).states
    peak = _peak_units(log_emission_matrix, states, config, columns.t_day, columns.locs,
                       columns.embeds)
    assert peak <= 2.5


def test_forward_backward_holds_three_arrays_and_the_scratch_block(fit_inputs):
    # the packed emission copy, alpha turned into gamma, and gamma in corpus
    # order, at most two at once: 3.18 units with the block; the full-beta
    # pass peaked at 6.4 units plus a scratch block of all the traces
    _, columns, model = fit_inputs
    log_b = log_emission_matrix(model.states, model.config, columns.t_day, columns.locs,
                                columns.embeds)
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.trans)
    packing = hmm_core._pack(columns.lengths)
    peak = _peak_units(hmm_core._forward_backward, log_pi, log_a, log_b, packing)
    assert peak <= 3.0 + BLOCK / UNIT


@pytest.mark.parametrize("preset", ["shmm", "ghmm", "st-hmm", "hmm"])
def test_m_step_holds_at_most_two_buffers_beyond_its_inputs(fit_inputs, preset):
    # the centered moments of every state in two reused (N, K) buffers; the
    # E-step peaks at about 4.2 units, so the M-step does not set the fit's peak
    _, columns, model = fit_inputs
    gamma = hmm_core._e_step(model, columns)[0]
    peak = _peak_units(m_step_state, columns.t_day, columns.locs, columns.embeds, gamma,
                       EmissionConfig.preset(preset))
    assert peak <= 2.5


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


@pytest.mark.parametrize("preset, k, n_traces, length", [
    ("shmm", 20, 200, 20), ("shmm", 30, 400, 20), ("shmm", 10, 50, 80),
    ("ghmm", 10, 50, 80), ("ghmm", 10, 850, 13),
])
def test_the_e_step_sets_the_fits_peak(preset, k, n_traces, length):
    # in units of this shape's N*K*8 bytes; the margin measured 0.02 to 0.06.
    # Holding the emission matrix through the M-step lifted the K = 10,
    # 50 x 80 shmm fit (embedding dim 30 > K) by one unit
    corpus = Corpus(synth.sample_corpus(synth.planted_model(k, 30, seed=3), n_traces, length,
                                        seed=4))
    config = EmissionConfig.preset(preset)
    unit = corpus.t_day.size * k * 8
    model = hmm_core._init_from_kmeans(corpus, k, config, KMeansInit(seed=0))
    e_step = _peak_bytes(hmm_core._e_step, model, corpus) / unit
    fit = _peak_bytes(baum_welch, corpus, k, config, init=model,
                      stop=StopCriteria(rel_tol=0.0, max_iters=2)) / unit
    assert fit <= e_step + 0.25


def test_many_short_traces_hold_no_block_of_every_trace():
    # 2000 traces of 5 records at K = 40: a scratch block of every trace was
    # 8 units, and the E-step peaked at 12.28; with blocks it measured 3.64
    k = 40
    corpus = Corpus(synth.sample_corpus(synth.planted_model(k, k, seed=3), 2000, 5, seed=4))
    model = hmm_core._init_from_kmeans(corpus, k, EmissionConfig.shmm(), KMeansInit(seed=0))
    unit = corpus.t_day.size * k * 8
    assert _peak_bytes(hmm_core._e_step, model, corpus) / unit <= 3.75


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.ndjson"
    data_io.write_corpus(synth.sample_corpus(synth.planted_model(3, 8, seed=5), 30, 6, seed=6),
                         path)
    return path


def _train(corpus_file, out):
    return main(["train", "--corpus", str(corpus_file), "--k", "3", "--max-iters", "2",
                 "--output-dir", str(out)])


def test_no_record_outlives_its_line(corpus_file, tmp_path, monkeypatch):
    # every record is built by the record rules, and only its line's are alive
    # when the line's columns are kept; the fit starts with none
    built = []
    post_init = SemanticRecord.__post_init__

    def tracking_post_init(self):
        post_init(self)
        built.append(weakref.ref(self))

    def alive():
        return sum(ref() is not None for ref in built)

    alive_at_append = []
    append = CorpusColumns.append

    def checking_append(self, trace):
        alive_at_append.append(alive() - len(trace))
        append(self, trace)

    alive_at_fit = []
    fit = cli.baum_welch

    def checking_fit(*args, **kwargs):
        gc.collect()
        alive_at_fit.append(alive())
        return fit(*args, **kwargs)

    monkeypatch.setattr(SemanticRecord, "__post_init__", tracking_post_init)
    monkeypatch.setattr(CorpusColumns, "append", checking_append)
    monkeypatch.setattr(cli, "baum_welch", checking_fit)
    assert _train(corpus_file, tmp_path / "out") == 0
    assert alive_at_append == [0] * 30
    assert alive_at_fit == [0] and len(built) == 180


def test_fit_reads_the_corpus_columns_in_place(corpus_file, tmp_path, monkeypatch):
    read, emitted = [], []
    read_columns, emission_matrix = data_io.read_columns, hmm_core.log_emission_matrix

    def recording_read_columns(path):
        read.append(read_columns(path))
        return read[-1]

    def recording_emission_matrix(states, config, times, locs, embeds):
        emitted.append((times, locs, embeds))
        return emission_matrix(states, config, times, locs, embeds)

    monkeypatch.setattr(data_io, "read_columns", recording_read_columns)
    monkeypatch.setattr(hmm_core, "log_emission_matrix", recording_emission_matrix)
    assert _train(corpus_file, tmp_path / "out") == 0
    [corpus] = read
    assert isinstance(corpus, Corpus)
    assert len(emitted) == 2  # one E-step per EM iteration
    for columns in emitted:
        for got, column in zip(columns, (corpus.t_day, corpus.locs, corpus.embeds)):
            assert np.shares_memory(got, column)


@pytest.mark.parametrize("name", ["t_abs", "t_day", "locs", "embeds", "lengths"])
def test_corpus_columns_are_read_only(corpus_file, name):
    column = getattr(data_io.read_columns(corpus_file), name)
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 1


def test_a_corpus_is_built_from_traces_only(corpus_file):
    traces = data_io.read_corpus(corpus_file)
    corpus = data_io.read_columns(corpus_file)
    with pytest.raises(TypeError):
        Corpus(corpus.t_abs, corpus.t_day, corpus.locs, corpus.embeds, corpus.lengths,
               corpus.user_ids, corpus.texts)
    with pytest.raises(TypeError, match="^a corpus holds Traces, got list$"):
        Corpus([list(trace) for trace in traces])
    rebuilt = Corpus(traces)
    for name in ("t_abs", "t_day", "locs", "embeds", "lengths"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(corpus, name))
