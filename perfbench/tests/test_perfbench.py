"""Tests of the benchmark itself, on the smoke-sized workloads.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import run as harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "shmm.cli", *argv], capture_output=True,
                          text=True, env=harness.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


def _checker(w, input_dir, tmp_path):
    return harness.Checker(w, input_dir, seed=0, smoke=True, log_dir=tmp_path / "check",
                           deadline=time.perf_counter() + 120)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.E2E)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    w = workloads.WORKLOADS[name]
    a = inputs.generate_inputs(w, 7, tmp_path / "a", smoke=True).digest()
    b = inputs.generate_inputs(w, 7, tmp_path / "b", smoke=True).digest()
    c = inputs.generate_inputs(w, 8, tmp_path / "c", smoke=True).digest()
    assert a == b
    assert a != c


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    env = json.loads(proc.stdout.splitlines()[-2])["environment"]
    assert env["seed"] == 3 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", NAMES)
def test_traced_spans_have_non_negative_self_times(name, tmp_path):
    w = workloads.WORKLOADS[name]
    made = inputs.generate_inputs(w, 0, tmp_path / "in", smoke=True)
    spans_path = tmp_path / "spans.json"
    argv = workloads.cli_args(w, tmp_path / "in", tmp_path / "out")
    proc = subprocess.run([sys.executable, str(BENCH / "tracing.py"), "--out", str(spans_path),
                           "--run-id", "t", "--", *argv],
                          env=harness.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["missing"] == [] and doc["run_id"] == "t"
    spans = doc["spans"]
    assert spans
    for i, span in enumerate(spans):
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] is None or span["parent"] < i
    assert min(tracing.self_times_ns(spans)) >= 0
    metrics = tracing.layer_metrics(doc, {"write_corpus_s": 0.1, "startup_s": 0.1,
                                          "run_s": 1.0, "untraced_run_s": 1.0})
    assert metrics["hmm_core.fb_self_s"] >= 0.0
    if w.command == "predict":
        assert metrics["hmm_core.score_next_calls"] == made.n_traces
    else:
        assert metrics["hmm_core.em_iters"] == w.max_iters
        assert (metrics["vmf.fit_vmf_calls"] > 0) == (w.preset == "shmm")


def test_a_vanished_name_is_reported_missing_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TIMED", (("data_io.haversine_m", "shmm.data_io", "gone"),))
    monkeypatch.setattr(tracing, "COUNTED", ())
    tracer = tracing.Tracer("t")
    with pytest.warns(UserWarning, match="not found"):
        tracing.install(tracer)
    assert tracer.missing == ["data_io.haversine_m"]
    doc = tracer.document()
    metrics = tracing.layer_metrics(doc, {"write_corpus_s": 0.1, "startup_s": 0.1,
                                          "run_s": 1.0, "untraced_run_s": 1.0})
    assert metrics["data_io.haversine_s"] is None
    assert metrics["data_io.build_pools_s"] == 0.0


def test_output_check_catches_wrong_train_output(tmp_path):
    w = workloads.WORKLOADS["train-uniform"]
    inputs.generate_inputs(w, 0, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    _run_cli(workloads.cli_args(w, tmp_path / "in", out))
    assert _checker(w, tmp_path / "in", tmp_path).check(out)[0] == []

    lik = out / "likelihood.csv"
    rows = list(csv.reader(lik.open()))
    rows[-1][1] = repr(float(rows[-2][1]) - 1.0)  # EM "decreased"
    with lik.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = _checker(w, tmp_path / "in", tmp_path).check(out)[0]
    assert any("loglik fell" in p for p in problems)


def test_output_check_catches_wrong_accuracy(tmp_path):
    w = workloads.WORKLOADS["predict-mixed"]
    inputs.generate_inputs(w, 0, tmp_path / "in", smoke=True)
    out = tmp_path / "out"
    _run_cli(workloads.cli_args(w, tmp_path / "in", out))
    checker = _checker(w, tmp_path / "in", tmp_path)
    assert checker.check(out)[0] == []

    acc = out / "accuracy.csv"
    rows = list(csv.DictReader(acc.open()))
    n_test = int(rows[0]["n_test"])
    rows[0]["accuracy"] = repr(float(rows[0]["accuracy"]) + 2.0 / n_test)  # two queries off
    with acc.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert any("acc@1" in p for p in checker.check(out)[0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
