"""End-to-end tests of the CLI: preprocess -> train -> summarize -> predict."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from shmm.cli import main
from shmm.data_io import read_corpus
from shmm.hmm_core import forward_backward, load_model
from shmm.records import Trace
from shmm.synth import planted_model, sample_corpus
from shmm import data_io


@pytest.fixture
def vectors_file(tmp_path):
    path = tmp_path / "vectors.txt"
    rows = [
        "coffee 1.0 0.1 0.0 0.0",
        "espresso 0.9 0.2 0.1 0.0",
        "beach -0.1 1.0 0.1 0.0",
        "surf 0.0 0.9 0.2 0.1",
        "game 0.0 0.0 1.0 0.1",
        "dodgers 0.1 0.0 0.9 0.2",
        "show -0.1 0.1 0.0 1.0",
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "raw.ndjson"
    hour = 3600
    docs = []
    base = 1_400_000_000
    texts = ["morning coffee", "espresso break", "beach day #surf",
             "dodgers game!", "game night", "great show @friend"]
    for u in range(4):
        for i in range(6):
            docs.append(
                {
                    "user_id": f"user{u}",
                    "timestamp": base + u * 100_000 + i * hour,
                    "lon": -118.2 + 0.01 * u + 0.001 * i,
                    "lat": 34.05 + 0.01 * (i % 2),
                    "text": texts[i],
                }
            )
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestPreprocess:
    def test_empty_input(self, tmp_path, vectors_file):
        raw = tmp_path / "empty.ndjson"
        raw.write_text("")
        out = tmp_path / "out"
        rc = main([
            "preprocess", "--input", str(raw), "--embeddings", str(vectors_file),
            "--output-dir", str(out),
        ])
        assert rc == 0
        assert read_corpus(out / "corpus.ndjson") == []
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["records_read"] == 0
        assert report["n_traces"] == 0

    def test_seven_hour_gap_splits(self, tmp_path, vectors_file):
        raw = tmp_path / "raw.ndjson"
        hour = 3600
        times = [0, 1 * hour, 8 * hour, 10 * hour]  # gaps 1h, 7h, 2h
        docs = [
            {"user_id": "u", "timestamp": t, "lon": 0.0, "lat": 0.0, "text": "coffee"}
            for t in times
        ]
        raw.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        out = tmp_path / "out"
        rc = main([
            "preprocess", "--input", str(raw), "--embeddings", str(vectors_file),
            "--output-dir", str(out),
        ])
        assert rc == 0
        corpus = read_corpus(out / "corpus.ndjson")
        assert [len(t) for t in corpus] == [2, 2]

    def test_oov_record_dropped_and_counted(self, tmp_path, vectors_file):
        raw = tmp_path / "raw.ndjson"
        docs = [
            {"user_id": "u", "timestamp": 0, "lon": 0.0, "lat": 0.0, "text": "coffee"},
            {"user_id": "u", "timestamp": 60, "lon": 0.0, "lat": 0.0, "text": "zzz qqq"},
            {"user_id": "u", "timestamp": 120, "lon": 0.0, "lat": 0.0, "text": "beach"},
        ]
        raw.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        out = tmp_path / "out"
        rc = main([
            "preprocess", "--input", str(raw), "--embeddings", str(vectors_file),
            "--output-dir", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["records_dropped_no_tokens"] == 1
        corpus = read_corpus(out / "corpus.ndjson")
        assert sum(len(t) for t in corpus) == 2

    def test_missing_embedding_file(self, tmp_path, raw_file):
        rc = main([
            "preprocess", "--input", str(raw_file),
            "--embeddings", str(tmp_path / "nope.txt"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1


class TestTrain:
    def _preprocess(self, tmp_path, raw_file, vectors_file):
        out = tmp_path / "pre"
        assert main([
            "preprocess", "--input", str(raw_file), "--embeddings", str(vectors_file),
            "--output-dir", str(out),
        ]) == 0
        return out / "corpus.ndjson"

    def test_k1_converges_fast(self, tmp_path, raw_file, vectors_file):
        corpus = self._preprocess(tmp_path, raw_file, vectors_file)
        out = tmp_path / "train"
        rc = main(["train", "--corpus", str(corpus), "--k", "1", "--output-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "likelihood.csv")
        assert rows[0] == ["iteration", "loglik", "seconds"]
        assert len(rows) - 1 <= 2
        model = load_model(out / "model.json")
        assert model.n_states == 1

    def test_rerun_is_deterministic(self, tmp_path, raw_file, vectors_file):
        corpus = self._preprocess(tmp_path, raw_file, vectors_file)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "train", "--corpus", str(corpus), "--k", "2",
                "--output-dir", str(out), "--seed", "3",
            ]) == 0
        rows_a = [r[:2] for r in read_csv(out_a / "likelihood.csv")]
        rows_b = [r[:2] for r in read_csv(out_b / "likelihood.csv")]
        assert rows_a == rows_b
        assert (out_a / "model.json").read_text() == (out_b / "model.json").read_text()

    def test_planted_corpus_reaches_generator_loglik(self, tmp_path):
        model_true = planted_model(5, 10, seed=0)
        corpus = sample_corpus(model_true, 120, 12, seed=1)
        corpus_path = tmp_path / "corpus.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        out = tmp_path / "train"
        rc = main([
            "train", "--corpus", str(corpus_path), "--k", "5",
            "--output-dir", str(out), "--max-iters", "60", "--rel-tol", "1e-8",
        ])
        assert rc == 0
        rows = read_csv(out / "likelihood.csv")
        final = float(rows[-1][1])
        truth_ll = sum(forward_backward(model_true, t)[1] for t in corpus)
        assert final >= truth_ll - 0.01 * abs(truth_ll)

    def test_preset_flag(self, tmp_path, raw_file, vectors_file):
        corpus = self._preprocess(tmp_path, raw_file, vectors_file)
        out = tmp_path / "hmm"
        rc = main([
            "train", "--corpus", str(corpus), "--k", "2", "--preset", "hmm",
            "--output-dir", str(out),
        ])
        assert rc == 0
        model = load_model(out / "model.json")
        assert model.config.text_model == "none"
        assert not model.config.use_time


class TestSummarize:
    def test_k1_self_transition(self, tmp_path, raw_file, vectors_file):
        pre = tmp_path / "pre"
        assert main([
            "preprocess", "--input", str(raw_file), "--embeddings", str(vectors_file),
            "--output-dir", str(pre),
        ]) == 0
        train = tmp_path / "train"
        assert main([
            "train", "--corpus", str(pre / "corpus.ndjson"), "--k", "1",
            "--output-dir", str(train),
        ]) == 0
        out = tmp_path / "sum"
        rc = main([
            "summarize", "--model", str(train / "model.json"),
            "--embeddings", str(vectors_file), "--output-dir", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 2  # header + one state
        assert rows[1][-1] == "0:1.000000"

    def test_keyword_aligned_mean_direction_ranks_first(self, tmp_path, vectors_file):
        from shmm.emission import EmissionConfig, StateParams
        from shmm.hmm_core import ShmmModel, save_model
        from shmm.text_embed import load_keyword_vectors
        from shmm.vmf import VmfParams

        table = load_keyword_vectors(vectors_file)
        direction = table.vectors[4] / np.linalg.norm(table.vectors[4])  # "game"
        state = StateParams(
            mu_t=43200.0, sigma_t=3600.0, mu_l=np.zeros(2), cov_l=np.eye(2),
            text=VmfParams(mu=direction, kappa=10.0, p=4),
        )
        model = ShmmModel(
            n_states=1, pi=np.array([1.0]), trans=np.array([[1.0]]),
            states=[state], config=EmissionConfig.shmm(), embedding_dim=4,
        )
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        out = tmp_path / "sum"
        rc = main([
            "summarize", "--model", str(model_path), "--embeddings", str(vectors_file),
            "--k-keywords", "3", "--output-dir", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "summary.csv")
        assert rows[1][6].split()[0] == "game"

    def test_dimension_mismatch_fails(self, tmp_path, vectors_file):
        model_true = planted_model(1, 6, seed=2)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        rc = main([
            "summarize", "--model", str(model_path), "--embeddings", str(vectors_file),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1


class TestPredict:
    def test_end_to_end_accuracy_csv(self, tmp_path):
        model_true = planted_model(3, 6, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus = sample_corpus(model_true, 120, 5, seed=4)
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        model_path = tmp_path / "model.json"
        from shmm.hmm_core import save_model

        save_model(model_true, model_path)
        out = tmp_path / "pred"
        rc = main([
            "predict", "--model", str(model_path), "--corpus", str(corpus_path),
            "--pool-size", "5", "--k-list", "1,3,5", "--output-dir", str(out),
            "--dataset", "demo", "--seed", "11",
        ])
        assert rc == 0
        rows = read_csv(out / "accuracy.csv")
        assert rows[0] == ["dataset", "K", "accuracy", "n_test", "pool_size", "seed"]
        accs = {int(r[1]): float(r[2]) for r in rows[1:]}
        assert accs[5] == 1.0
        assert 0.0 <= accs[1] <= accs[3] <= accs[5]
        report = json.loads((out / "predict_report.json").read_text())
        assert report["n_test_traces"] == 120

    def test_impossible_prefix_fails_cleanly(self, tmp_path, capsys):
        model_true = planted_model(3, 6, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus = sample_corpus(model_true, 20, 5, seed=4)
        records = list(corpus[7].records)
        records[0] = dataclasses.replace(records[0], loc=np.array([1e200, 0.0]))
        corpus[7] = Trace(records)
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        model_path = tmp_path / "model.json"
        from shmm.hmm_core import save_model

        save_model(model_true, model_path)
        with np.errstate(over="ignore"):
            rc = main([
                "predict", "--model", str(model_path), "--corpus", str(corpus_path),
                "--pool-size", "5", "--k-list", "1", "--output-dir", str(tmp_path / "pred"),
                "--dataset", "demo", "--seed", "11",
            ])
        assert rc == 1
        assert "log-likelihood is not finite" in capsys.readouterr().err


class TestSynth:
    def test_newton_convergence_csv(self, tmp_path):
        out = tmp_path / "synth"
        rc = main([
            "synth", "newton_convergence", "--p", "20", "--kappa", "50",
            "--n", "20000", "--output-dir", str(out), "--seed", "1",
        ])
        assert rc == 0
        rows = read_csv(out / "newton_convergence.csv")
        assert rows[0] == ["x", "metric", "value"]
        residuals = [float(r[2]) for r in rows[1:]]
        assert residuals[-1] < 1e-13

    def test_estimation_vs_n_means_decrease(self, tmp_path):
        out = tmp_path / "synth"
        rc = main([
            "synth", "estimation_vs_n", "--p", "20", "--kappa", "30",
            "--grid", "100,1000,10000", "--n-seeds", "5",
            "--output-dir", str(out), "--seed", "2",
        ])
        assert rc == 0
        rows = read_csv(out / "estimation_vs_n.csv")
        means = [
            (float(r[0]), float(r[2])) for r in rows[1:] if r[1] == "kappa_rel_error_mean"
        ]
        assert len(means) == 3
        values = [v for _, v in sorted(means)]
        assert values[0] >= values[1] >= values[2]

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"p": 10, "kappa": 20.0, "n": 5000, "seed": 3}))
        out = tmp_path / "synth"
        rc = main([
            "--config", str(config), "synth", "newton_convergence",
            "--n", "2000", "--output-dir", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "newton_convergence.csv")
        assert float(rows[-1][2]) < 1e-12
