"""End-to-end tests of the CLI: preprocess -> train -> summarize -> predict."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from shmm.cli import main
from shmm.data_io import read_corpus
from shmm.hmm_core import forward_backward, load_model
from shmm.records import Trace
from shmm.synth import planted_model, sample_corpus
from shmm import data_io

from _helpers import assert_readers_agree


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

    @pytest.mark.parametrize("bad, message", [
        ({"user_id": "u", "lon": 0.0, "lat": 0.0, "text": "coffee"},
         "missing field 'timestamp'"),
        ({"user_id": "u", "timestamp": 60, "lon": "x", "lat": 0.0, "text": "coffee"},
         "could not convert string to float: 'x'"),
        ({"user_id": "u", "timestamp": 60, "lon": "NaN", "lat": 0.0, "text": "coffee"},
         "lon must be finite, got nan"),
        ({"user_id": "u", "timestamp": 60, "lon": 0.0, "lat": float("-inf"), "text": "coffee"},
         "lat must be finite, got -inf"),
        ({"user_id": "u", "timestamp": float("nan"), "lon": 0.0, "lat": 0.0, "text": "coffee"},
         "timestamp must be finite, got nan"),
    ])
    def test_bad_raw_record_is_located(self, tmp_path, vectors_file, capsys, bad, message):
        raw = tmp_path / "raw.ndjson"
        good = {"user_id": "u", "timestamp": 0, "lon": 0.0, "lat": 0.0, "text": "coffee"}
        raw.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        rc = main([
            "preprocess", "--input", str(raw), "--embeddings", str(vectors_file),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {raw}:3: {message}\n"

    def test_null_text_is_the_empty_message(self, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("coffee 1.0 0.0\nnone 0.0 1.0\n")
        raw = tmp_path / "raw.ndjson"
        docs = [{"user_id": "u", "timestamp": 60 * i, "lon": 0.0, "lat": 0.0, "text": text}
                for i, text in enumerate(["coffee", None, "coffee"])]
        raw.write_text("".join(json.dumps(d) + "\n" for d in docs))
        out = tmp_path / "out"
        assert main(["preprocess", "--input", str(raw), "--embeddings", str(vectors),
                     "--output-dir", str(out)]) == 0
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["records_dropped_no_tokens"] == 1
        assert report["n_records_kept"] == 2


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

    def test_bad_corpus_record_is_located(self, tmp_path, capsys):
        corpus = sample_corpus(planted_model(2, 4, seed=5), 3, 3, seed=6)
        corpus_path = tmp_path / "corpus.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[2])
        del doc["records"][0]["t_day"]
        lines[2] = json.dumps(doc)
        corpus_path.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--corpus", str(corpus_path), "--k", "2",
                   "--output-dir", str(tmp_path / "train")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {corpus_path}:3: missing field 't_day'\n"

    def test_nan_embedding_is_located(self, tmp_path, capsys):
        corpus = sample_corpus(planted_model(2, 4, seed=5), 5, 3, seed=6)
        corpus_path = tmp_path / "corpus.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["records"][0]["embedding"] = [float("nan"), 0.0, 0.0, 0.0]
        lines[3] = json.dumps(doc)
        corpus_path.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--corpus", str(corpus_path), "--k", "2",
                   "--output-dir", str(tmp_path / "train")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}:4: embedding must be unit norm, got ||e|| = nan\n"
        )

    def test_mixed_embedding_lengths_are_located(self, tmp_path, capsys):
        corpus = sample_corpus(planted_model(2, 4, seed=5), 3, 3, seed=6)
        corpus_path = tmp_path / "corpus.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        lines = corpus_path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["records"][2]["embedding"] = [1.0, 0.0, 0.0, 0.0, 0.0]
        lines[1] = json.dumps(doc)
        corpus_path.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--corpus", str(corpus_path), "--k", "2",
                   "--output-dir", str(tmp_path / "train")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}:2: records mix embedding lengths [4, 5]\n"
        )

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

    @pytest.mark.parametrize("preset, has_kappa, has_keywords", [
        ("shmm", True, True), ("ghmm", False, True), ("st-hmm", False, False),
    ])
    def test_text_columns_follow_the_preset(self, tmp_path, raw_file, vectors_file, preset,
                                            has_kappa, has_keywords):
        pre, train, out = tmp_path / "pre", tmp_path / "train", tmp_path / "sum"
        assert main(["preprocess", "--input", str(raw_file), "--embeddings", str(vectors_file),
                     "--output-dir", str(pre)]) == 0
        assert main(["train", "--corpus", str(pre / "corpus.ndjson"), "--k", "2",
                     "--preset", preset, "--max-iters", "5", "--output-dir", str(train)]) == 0
        assert main(["summarize", "--model", str(train / "model.json"),
                     "--embeddings", str(vectors_file), "--k-keywords", "3",
                     "--output-dir", str(out)]) == 0
        header, *rows = read_csv(out / "summary.csv")
        kappa, keywords = header.index("kappa"), header.index("top_keywords")
        assert len(rows) == 2
        for row in rows:
            assert (row[kappa] != "") == has_kappa
            assert len(row[keywords].split()) == (3 if has_keywords else 0)

    def test_vmf_text_columns_are_mean_direction_and_kappa(self, tmp_path, vectors_file):
        from shmm.hmm_core import save_model
        from shmm.text_embed import load_keyword_vectors, nearest_keywords

        model = planted_model(3, 4, seed=2)
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        out = tmp_path / "sum"
        assert main(["summarize", "--model", str(model_path), "--embeddings", str(vectors_file),
                     "--k-keywords", "4", "--output-dir", str(out)]) == 0
        table = load_keyword_vectors(vectors_file)
        rows = read_csv(out / "summary.csv")[1:]
        assert [row[5:7] for row in rows] == [
            [repr(float(s.text.kappa)), " ".join(nearest_keywords(s.text.mu, table, 4))]
            for s in load_model(model_path).states
        ]

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

    @pytest.mark.parametrize("flag, value, name", [
        ("--time-thresh", "-5", "time_thresh"),
        ("--dist-thresh", "nan", "dist_thresh"),
        ("--pool-size", "0", "pool_size"),
        ("--pool-size", "1", "pool_size"),
        ("--k-list", "1,0", "accuracy cutoff K"),
    ])
    def test_bad_pool_parameter_fails_cleanly(self, tmp_path, capsys, flag, value, name):
        model_true = planted_model(3, 6, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(sample_corpus(model_true, 10, 4, seed=4), corpus_path)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        out = tmp_path / "pred"
        rc = main([
            "predict", "--model", str(model_path), "--corpus", str(corpus_path),
            "--output-dir", str(out), flag, value,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")
        assert not out.exists()

    def test_foreign_embedding_dim_names_the_trace(self, tmp_path, capsys):
        model_true = planted_model(3, 4, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus = sample_corpus(model_true, 12, 4, seed=4)
        corpus[7] = sample_corpus(planted_model(3, 5, seed=3), 1, 4, seed=5)[0]
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(corpus, corpus_path)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        out = tmp_path / "pred"
        rc = main([
            "predict", "--model", str(model_path), "--corpus", str(corpus_path),
            "--pool-size", "3", "--output-dir", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: trace 7: trace embedding dim 5 != model 4\n"
        assert not out.exists()

    def test_malformed_model_fails_cleanly(self, tmp_path, capsys):
        model_true = planted_model(3, 6, seed=3)
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(sample_corpus(model_true, 10, 4, seed=4), corpus_path)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        doc = json.loads(model_path.read_text())
        doc["states"][1]["text"] = None
        model_path.write_text(json.dumps(doc))
        rc = main([
            "predict", "--model", str(model_path), "--corpus", str(corpus_path),
            "--output-dir", str(tmp_path / "pred"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: state 1: text_model 'vmf'")


class TestSynth:
    def test_zero_seeds_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = main([
            "synth", "estimation_vs_p", "--grid", "3", "--n", "100", "--n-seeds", "0",
            "--output-dir", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: n_seeds must be >= 1")
        assert not (out / "estimation_vs_p.csv").exists()

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

    @pytest.mark.parametrize("experiment, flag", [
        ("estimation_vs_n", "--n"),
        ("estimation_vs_kappa", "--kappa"),
        ("estimation_vs_p", "--p"),
        ("newton_convergence", "--n-seeds"),
    ])
    def test_inapplicable_flag_is_noted(self, tmp_path, capsys, experiment, flag):
        grid = [] if experiment == "newton_convergence" else ["--grid", "4,9"]
        out = tmp_path / "synth"
        rc = main([
            "synth", experiment, "--p", "5", "--kappa", "20", "--n", "300", "--n-seeds", "1",
            *grid, "--output-dir", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"note: {flag} does not apply to {experiment}; ignored\n"
        )
        assert (out / f"{experiment}.csv").exists()

    def test_grid_on_newton_convergence_fails(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = main([
            "synth", "newton_convergence", "--grid", "1,2", "--output-dir", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: newton_convergence takes no --grid\n"
        assert not (out / "newton_convergence.csv").exists()


class TestConfig:
    @pytest.mark.parametrize("command, key", [
        (["synth", "newton_convergence"], "max_itr"),
        (["train", "--corpus", "corpus.ndjson", "--k", "2"], "max_iter"),
        (["synth", "estimation_vs_p"], "experiment"),
        (["predict"], "k"),
        (["preprocess"], "seed"),
        (["summarize"], "seed"),
    ])
    def test_unknown_key_fails(self, tmp_path, capsys, command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, key: 1}))
        out = tmp_path / "out"
        rc = main(["--config", str(config), *command, "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config key {key!r} is not an option of {command[0]!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, kind", [
        *[(command, key, value, "int")
          for command, key in [(["preprocess"], "min_len"), (["train"], "k"),
                               (["train"], "max_iters"), (["train"], "seed"),
                               (["summarize"], "k_keywords"), (["predict"], "pool_size"),
                               (["synth", "newton_convergence"], "n"),
                               (["synth", "estimation_vs_p"], "n_seeds")]
          for value in (2.7, True, [1])],
        (["train"], "rel_tol", "abc", "float"),
        (["predict"], "dist_thresh", "abc", "float"),
        (["synth", "newton_convergence"], "kappa", [20.0], "float"),
        (["predict"], "k_list", [1, 5], "comma_list"),
        (["predict"], "k_list", "1,x", "comma_list"),
        (["synth", "estimation_vs_n"], "grid", [100, 1000], "comma_list"),
    ])
    def test_value_is_read_by_the_flag_type(self, tmp_path, capsys, command, key, value, kind):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        rc = main(["--config", str(config), *command, "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config key {key!r}: invalid {kind} value {json.dumps(value)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_config_matches_flags(self, tmp_path, command):
        model_true = planted_model(3, 6, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus_path = tmp_path / "corpus.ndjson"
        data_io.write_corpus(sample_corpus(model_true, 40, 5, seed=4), corpus_path)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        if command == "train":
            options = {"corpus": str(corpus_path), "k": 3, "preset": "ghmm", "rel_tol": 1e-8,
                       "max_iters": 4, "seed": 3, "sigma_t_floor": 30.0, "var_floor": 1e-5}
            files = ["model.json"]
        else:
            options = {"model": str(model_path), "corpus": str(corpus_path), "dataset": "demo",
                       "dist_thresh": 5000, "time_thresh": 600.0, "pool_size": 5,
                       "k_list": "1,3", "seed": 11}
            files = ["accuracy.csv", "predict_report.json"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        flags = [text for key, value in options.items()
                 for text in (f"--{key.replace('_', '-')}", str(value))]
        by_config, by_flags = tmp_path / "config", tmp_path / "flags"
        assert main(["--config", str(config), command, "--output-dir", str(by_config)]) == 0
        assert main([command, *flags, "--output-dir", str(by_flags)]) == 0
        for name in files:
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()
        if command == "train":
            logliks = [[row[1] for row in read_csv(out / "likelihood.csv")]
                       for out in (by_config, by_flags)]
            assert logliks[0] == logliks[1]

    def test_flag_beats_config_beats_default(self, tmp_path):
        model_true = planted_model(3, 6, seed=3, loc_cov=np.diag([1e-5, 1e-5]))
        corpus_path = tmp_path / "test.ndjson"
        data_io.write_corpus(sample_corpus(model_true, 30, 4, seed=4), corpus_path)
        from shmm.hmm_core import save_model

        model_path = tmp_path / "model.json"
        save_model(model_true, model_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(corpus_path), "pool_size": 5, "seed": 3,
                                      "time_thresh": 600, "dist_thresh": None}))
        out = tmp_path / "pred"
        assert main(["--config", str(config), "predict", "--model", str(model_path),
                     "--seed", "11", "--output-dir", str(out)]) == 0
        report = json.loads((out / "predict_report.json").read_text())
        assert report["dataset"] == "test"
        assert report["config"] == {"dist_thresh": 3500.0, "time_thresh": 600.0,
                                    "pool_size": 5, "k_list": [1, 5, 10], "seed": 11}

    @pytest.mark.parametrize("command", ["preprocess", "summarize"])
    def test_seed_flag_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, flag", [
        (["train", "--k", "2"], {}, "--corpus"),
        (["train", "--corpus", "corpus.ndjson"], {"k": None}, "--k"),
        (["preprocess", "--embeddings", "vectors.txt"], {}, "--input"),
        (["predict", "--model", "model.json"], {"seed": 2}, "--corpus"),
    ])
    def test_missing_required_option(self, tmp_path, argv, config, flag):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match=f"^missing required option {flag}$"):
            main(["--config", str(path), *argv])


def _edit_model(edit):
    """Mutation: apply edit to the decoded model document and write it back."""
    def mutate(files):
        doc = json.loads(files["model"].read_text())
        edit(doc)
        files["model"].write_text(json.dumps(doc))
    return mutate


def _write(name, text):
    """Mutation: replace the file `name` with text."""
    return lambda files: files[name].write_text(text)


def _replace_line(name, lineno, line):
    """Mutation: replace line lineno (1-based) of the file `name`."""
    def mutate(files):
        lines = files[name].read_text().splitlines()
        lines[lineno - 1] = line
        files[name].write_text("\n".join(lines) + "\n")
    return mutate


def _as_ghmm(text_var):
    """Edit: make the model a `ghmm` one, each state's text mean its vMF mean
    direction and its text variance 0.5, but text_var for state 1."""
    def edit(doc):
        doc["config"]["text_model"] = "gaussian"
        for j, state in enumerate(doc["states"]):
            mean = state.pop("text")["mu"]
            state.update(text=None, text_mean=mean,
                         text_var=[0.5 if j != 1 else text_var] * len(mean))
    return edit


def _raw_field(key, value):
    """Mutation: set one field of the second raw record."""
    def mutate(files):
        lines = files["raw"].read_text().splitlines()
        lines[1] = json.dumps(dict(json.loads(lines[1]), **{key: value}))
        files["raw"].write_text("\n".join(lines) + "\n")
    return mutate


def _corpus_field(key, value):
    """Mutation: set one field of the first record on the second corpus line."""
    def mutate(files):
        lines = files["corpus"].read_text().splitlines()
        doc = json.loads(lines[1])
        doc["records"][0][key] = value
        lines[1] = json.dumps(doc)
        files["corpus"].write_text("\n".join(lines) + "\n")
    return mutate


def _other_dim_line(lineno):
    """Mutation: give every record on corpus line lineno a dim-5 embedding."""
    def mutate(files):
        lines = files["corpus"].read_text().splitlines()
        doc = json.loads(lines[lineno - 1])
        for record in doc["records"]:
            record["embedding"] = [0.6, 0.0, 0.8, 0.0, 0.0]
        lines[lineno - 1] = json.dumps(doc)
        files["corpus"].write_text("\n".join(lines) + "\n")
    return mutate


#: The corpus mutations of TestBadInputs, by row id.
_BAD_CORPUS = {
    "predict-empty-trace": _replace_line("corpus", 3, json.dumps({"user_id": "u", "records": []})),
    "corpus-t_abs-bool": _corpus_field("t_abs", True),
    "corpus-lon-bool": _corpus_field("lon", True),
    "corpus-embedding-2d": _corpus_field("embedding", [[0.6, 0.8, 0.0, 0.0]]),
    "corpus-embedding-scalar": _corpus_field("embedding", 1.0),
    "corpus-embedding-bool": _corpus_field("embedding", [True, False, False, False]),
    "corpus-t_abs-overflow": _corpus_field("t_abs", 10 ** 400),
    "predict-corpus-embedding-overflow": _corpus_field("embedding", [10 ** 400, 0, 0, 0]),
    "corpus-embedding-overflow": _corpus_field("embedding", [1e200, 0.0, 0.0, 0.0]),
}

_PREPROCESS = "preprocess --input {raw} --embeddings {vectors}"
_TRAIN = "train --corpus {corpus} --k 2 --max-iters 2"
_SUMMARIZE = "summarize --model {model} --embeddings {vectors}"
_PREDICT = "predict --model {model} --corpus {corpus} --pool-size 3"


class TestBadInputs:
    """Each bad input exits 1 with one `error:` line that names the file (and
    line) or the option at fault, and no traceback."""

    @pytest.fixture
    def files(self, tmp_path, raw_file, vectors_file):
        model = planted_model(2, 4, seed=3)
        files = {"raw": raw_file, "vectors": vectors_file, "model": tmp_path / "model.json",
                 "corpus": tmp_path / "corpus.ndjson", "config": tmp_path / "config.json"}
        from shmm.hmm_core import save_model

        save_model(model, files["model"])
        data_io.write_corpus(sample_corpus(model, 10, 4, seed=4), files["corpus"])
        files["config"].write_text("{}")
        return files

    @pytest.mark.parametrize("command, mutate, expected", [
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d["config"].update(colour="red")),
                     "{model}: .*'colour'", id="summarize-model-config-unknown-key"),
        pytest.param(_PREDICT, _edit_model(lambda d: d["config"].update(colour="red")),
                     "{model}: .*'colour'", id="predict-model-config-unknown-key"),
        pytest.param(_PREDICT, _edit_model(lambda d: d["config"].update(use_time="no")),
                     "{model}: use_time must be true or false, got 'no'",
                     id="model-config-use_time-string"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d["config"].update(use_location=0)),
                     "{model}: use_location must be true or false, got 0",
                     id="model-config-use_location-int"),
        pytest.param(_PREDICT, _edit_model(lambda d: d["config"].update(sigma_t_floor=True)),
                     "{model}: sigma_t_floor must be a number, got True",
                     id="model-config-sigma_t_floor-bool"),
        pytest.param(_SUMMARIZE, lambda f: f["model"].write_text(f["model"].read_text()[:24]),
                     "{model}: invalid JSON: .+", id="model-truncated"),
        pytest.param(_PREDICT,
                     _edit_model(lambda d: d["states"][0].update(cov_l=[[1.0, 0.0], [0.0]])),
                     "{model}: .+", id="model-ragged-cov_l"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.pop("states")),
                     "{model}: missing key 'states'", id="model-missing-key"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d.update(n_states="two")),
                     "{model}: .+'two'", id="model-wrong-type"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.update(n_states=1.9)),
                     "{model}: n_states must be an integer, got 1.9", id="model-n_states-float"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d.update(n_states=True)),
                     "{model}: n_states must be an integer, got True", id="model-n_states-bool"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.update(n_states="2")),
                     "{model}: n_states must be an integer, got '2'", id="model-n_states-string"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d.update(embedding_dim=4.5)),
                     "{model}: embedding_dim must be an integer, got 4.5",
                     id="model-embedding_dim-float"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.update(format_version=True)),
                     "{model}: unsupported model format version True",
                     id="model-format_version-bool"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d["states"].__setitem__(0, [1, 2])),
                     "{model}: a state must be a JSON object, got \\[1, 2\\]",
                     id="model-state-not-object"),
        pytest.param(_PREDICT, _write("model", "[1, 2]"), "{model}: not a model document",
                     id="model-not-object"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.update(pi=[1.0])),
                     "{model}: pi must be \\(K,\\) and trans \\(K, K\\)",
                     id="model-pi-wrong-length"),
        pytest.param(_SUMMARIZE, _edit_model(lambda d: d["states"][0].update(mu_t=float("nan"))),
                     "{model}: state 0: mu_t must be finite", id="model-nan-mu_t"),
        pytest.param(_PREDICT, _edit_model(lambda d: d["states"][0].update(mu_t=10 ** 400)),
                     "{model}: int too large to convert to float", id="model-mu_t-overflow"),
        pytest.param(_PREDICT,
                     _edit_model(lambda d: d["states"][1].update(cov_l=[[1.0, 2.0], [2.0, 1.0]])),
                     "{model}: cov_l of state 1 is not positive definite",
                     id="model-cov_l-not-positive-definite"),
        pytest.param(_PREDICT, _edit_model(lambda d: d.update(pi=[math.nan, math.nan])),
                     "{model}: probabilities must be non-negative", id="model-nan-pi"),
        pytest.param(_PREDICT,
                     _edit_model(lambda d: d["trans"].__setitem__(1, [math.nan, math.nan])),
                     "{model}: probabilities must be non-negative", id="model-nan-trans-row"),
        pytest.param(_PREDICT, _edit_model(_as_ghmm(text_var=math.inf)),
                     "{model}: state 1: text_model 'gaussian' needs text_mean and positive "
                     "finite text_var of shape \\(4,\\)", id="model-ghmm-infinite-text_var"),
        pytest.param("--config {config} " + _TRAIN, _write("config", "{not json"),
                     "{config}: invalid JSON: .+", id="config-invalid-json"),
        pytest.param("--config {config} " + _TRAIN, _write("config", "[1, 2]"),
                     "{config}: config file must hold a JSON object", id="config-not-object"),
        pytest.param(_TRAIN + " --sigma-t-floor nan", None,
                     "sigma_t_floor must be finite and > 0, got nan", id="sigma-t-floor-nan"),
        pytest.param(_TRAIN + " --var-floor 0", None,
                     "var_floor must be finite and > 0, got 0.0", id="var-floor-zero"),
        pytest.param(_TRAIN + " --var-floor -1", None,
                     "var_floor must be finite and > 0, got -1.0", id="var-floor-negative"),
        pytest.param(_TRAIN + " --rel-tol nan", None,
                     "need max_iters >= 1 and rel_tol >= 0", id="rel-tol-nan"),
        pytest.param(_TRAIN.replace("--k 2", "--k 50"), None,
                     "cannot initialize 50 states from 40 records", id="k-above-record-count"),
        pytest.param(_PREPROCESS + " --utc-offset nan", None,
                     "utc_offset must be finite, got nan", id="utc-offset-nan"),
        pytest.param(_PREPROCESS + " --delta-t nan", None,
                     "delta_t must be a number >= 0, got nan", id="delta-t-nan"),
        pytest.param(_PREPROCESS + " --min-len 0", None, "min_len must be >= 1, got 0",
                     id="min-len-zero"),
        pytest.param(_PREPROCESS + " --min-len -5", _write("raw", ""),
                     "min_len must be >= 1, got -5", id="empty-input-min-len-negative"),
        pytest.param(_PREPROCESS + " --utc-offset nan", _write("raw", ""),
                     "utc_offset must be finite, got nan", id="empty-input-utc-offset-nan"),
        pytest.param(_PREPROCESS + " --delta-t nan", _write("raw", ""),
                     "delta_t must be a number >= 0, got nan", id="empty-input-delta-t-nan"),
        pytest.param(_PREDICT, _BAD_CORPUS["predict-empty-trace"],
                     "{corpus}:3: a trace needs at least one record", id="predict-empty-trace"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-t_abs-bool"],
                     "{corpus}:2: t_abs must be a number, got true", id="corpus-t_abs-bool"),
        pytest.param(_PREDICT, _BAD_CORPUS["corpus-lon-bool"],
                     "{corpus}:2: lon must be a number, got true", id="corpus-lon-bool"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-embedding-2d"],
                     "{corpus}:2: embedding must be a vector, got shape \\(1, 4\\)",
                     id="corpus-embedding-2d"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-embedding-scalar"],
                     "{corpus}:2: embedding must be a vector, got shape \\(\\)",
                     id="corpus-embedding-scalar"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-embedding-bool"],
                     "{corpus}:2: embedding coordinates must be numbers, got a JSON boolean",
                     id="corpus-embedding-bool"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-t_abs-overflow"],
                     "{corpus}:2: int too large to convert to float", id="corpus-t_abs-overflow"),
        pytest.param(_PREDICT, _BAD_CORPUS["predict-corpus-embedding-overflow"],
                     "{corpus}:2: int too large to convert to float",
                     id="predict-corpus-embedding-overflow"),
        pytest.param(_TRAIN, _BAD_CORPUS["corpus-embedding-overflow"],
                     "{corpus}:2: embedding must be unit norm, got \\|\\|e\\|\\| = 1e\\+200",
                     id="corpus-embedding-overflow"),
        pytest.param(_PREDICT, _BAD_CORPUS["corpus-embedding-overflow"],
                     "{corpus}:2: embedding must be unit norm, got \\|\\|e\\|\\| = 1e\\+200",
                     id="predict-corpus-embedding-norm-overflow"),
        pytest.param(_TRAIN, _other_dim_line(4), "{corpus}:4: trace embedding dim 5 != corpus 4",
                     id="corpus-other-embedding-dim"),
        pytest.param(_TRAIN + " --seed -1", None, "--seed must be >= 0, got -1",
                     id="train-seed-negative"),
        pytest.param(_PREDICT + " --seed -1", None, "--seed must be >= 0, got -1",
                     id="predict-seed-negative"),
        pytest.param("--config {config} " + _PREDICT, _write("config", '{"seed": -2}'),
                     "--seed must be >= 0, got -2", id="config-seed-negative"),
        pytest.param(_PREPROCESS, _replace_line("vectors", 2, "espresso nan 0.2 0.1 0.0"),
                     "{vectors}:2: 'espresso' has a non-finite coordinate",
                     id="vectors-nan-coordinate"),
        pytest.param(_SUMMARIZE, _replace_line("vectors", 3, "beach -0.1 1.0 0.1"),
                     "{vectors}:3: 'beach' has 3 coordinates, the first vector 4",
                     id="vectors-short-line"),
        pytest.param(_PREPROCESS, _replace_line("vectors", 3, "coffee -0.1 1.0 0.1 0.0"),
                     "{vectors}:3: duplicate token 'coffee' \\(first on line 1\\)",
                     id="vectors-duplicate-token"),
        pytest.param(_TRAIN, _write("corpus", ""), "{corpus}: corpus contains no traces",
                     id="train-empty-corpus"),
        pytest.param(_PREDICT, _write("corpus", "\n  \n"),
                     "{corpus}: test corpus has no traces of length >= 2",
                     id="predict-blank-corpus"),
        pytest.param(_SUMMARIZE + " --k-keywords -1", None,
                     "keyword count k must be >= 0, got -1", id="k-keywords-negative"),
        pytest.param("synth newton_convergence --p 0", None, "dimension p must be >= 2, got 0",
                     id="synth-newton-p-zero"),
        pytest.param("synth newton_convergence --n 1", None,
                     "the sample's r_bar=[0-9.]+ needs kappa beyond 1e\\+06; "
                     "raise n or lower kappa", id="synth-newton-one-sample"),
        pytest.param("synth estimation_vs_p --grid 0", None, "dimension p must be >= 2, got 0",
                     id="synth-estimation-grid-p-zero"),
        pytest.param("synth estimation_vs_n --kappa 0", None, "kappa must be > 0, got 0.0",
                     id="synth-estimation-kappa-zero"),
        pytest.param("synth estimation_vs_kappa --grid 0", None, "kappa must be > 0, got 0.0",
                     id="synth-estimation-grid-kappa-zero"),
        pytest.param("synth estimation_vs_kappa --grid 10,nan", None,
                     "kappa must be > 0, got nan", id="synth-estimation-grid-kappa-nan"),
        pytest.param(_PREPROCESS, _raw_field("timestamp", True),
                     "{raw}:2: timestamp must be a number, got true", id="raw-timestamp-bool"),
        pytest.param(_PREPROCESS, _raw_field("lon", False),
                     "{raw}:2: lon must be a number, got false", id="raw-lon-bool"),
        pytest.param(_PREPROCESS, _raw_field("lat", True),
                     "{raw}:2: lat must be a number, got true", id="raw-lat-bool"),
        pytest.param(_PREPROCESS, _raw_field("timestamp", 10 ** 400),
                     "{raw}:2: int too large to convert to float", id="raw-timestamp-overflow"),
    ])
    def test_fails_with_one_located_error_line(self, tmp_path, capsys, files, command, mutate,
                                               expected):
        if mutate is not None:
            mutate(files)
        argv = [token.format(**files) for token in command.split()]
        rc = main([*argv, "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        pattern = "error: " + expected.format(**{k: re.escape(str(v)) for k, v in files.items()})
        assert len(captured.err.splitlines()) == 1
        assert re.fullmatch(pattern, captured.err.rstrip("\n")), captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(_BAD_CORPUS))
    def test_train_reader_gives_the_record_readers_message(self, files, name):
        _BAD_CORPUS[name](files)
        assert assert_readers_agree(files["corpus"]) is None
