"""Shared builders for randomized model/trace test instances, and the
corpus-reader oracle."""

import numpy as np
import pytest

from shmm.data_io import read_columns, read_corpus
from shmm.emission import EmissionConfig, StateParams
from shmm.hmm_core import ShmmModel
from shmm.records import SemanticRecord, Trace, stack_records
from shmm.vmf import VmfParams


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_model(k, p, rng):
    pi = rng.dirichlet(np.ones(k))
    trans = rng.dirichlet(np.ones(k), size=k)
    states = []
    for _ in range(k):
        cov = rng.standard_normal((2, 2))
        cov = cov @ cov.T + 0.5 * np.eye(2)
        states.append(
            StateParams(
                mu_t=float(rng.uniform(0, 86400)),
                sigma_t=float(rng.uniform(1800, 7200)),
                mu_l=rng.standard_normal(2),
                cov_l=cov,
                text=VmfParams(
                    mu=unit(rng.standard_normal(p)), kappa=float(rng.uniform(0, 30)), p=p
                ),
            )
        )
    return ShmmModel(
        n_states=k,
        pi=pi,
        trans=trans,
        states=states,
        config=EmissionConfig.shmm(),
        embedding_dim=p,
    )


def random_trace(r, p, rng, user="u"):
    records = [
        SemanticRecord(
            user_id=user,
            t_abs=float(i * 600),
            t_day=float(rng.uniform(0, 86400)),
            loc=rng.standard_normal(2),
            embedding=unit(rng.standard_normal(p)),
        )
        for i in range(r)
    ]
    return Trace(records)


def assert_readers_agree(path):
    """`read_columns(path)` against `read_corpus(path)` as the oracle.

    Where read_corpus raises, read_columns must raise the identical message.
    Otherwise its columns must be bitwise those `stack_records` gives over
    read_corpus's records, and its traces equal read_corpus's.  Returns the
    read_columns corpus, or None.
    """
    try:
        traces = read_corpus(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_columns(path)
        assert str(info.value) == str(exc)
        return None
    corpus = read_columns(path)
    records = [r for trace in traces for r in trace]
    t_day, locs, embeds = stack_records(records)
    expected = (np.array([r.t_abs for r in records], dtype=float), t_day, locs, embeds)
    for got, want in zip((corpus.t_abs, corpus.t_day, corpus.locs, corpus.embeds), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert corpus.lengths.tolist() == [len(trace) for trace in traces]
    assert corpus.user_ids == tuple(trace[0].user_id for trace in traces)
    assert corpus.texts == tuple(r.raw_text for r in records)
    assert len(corpus) == len(traces)
    for got_trace, trace in zip(corpus, traces):
        assert [(r.user_id, r.t_abs, r.t_day, r.loc.tobytes(), r.embedding.tobytes(),
                 r.raw_text) for r in got_trace] == [
            (r.user_id, r.t_abs, r.t_day, r.loc.tobytes(), r.embedding.tobytes(), r.raw_text)
            for r in trace]
    return corpus
