"""The runtime needs numpy only: scipy is a test dependency.

Each check runs in a fresh interpreter, so modules this test session has
already imported cannot hide an import the CLI would make on its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import shmm
from shmm import data_io
from shmm.synth import planted_model, sample_corpus

SRC = str(Path(shmm.__file__).resolve().parents[1])

# Runs the CLI with scipy made unimportable and prints how often the
# ascending-series branch of log_bessel_i ran.
_CLI_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from shmm import special_fns
from shmm.cli import main

series = special_fns._log_iv_series
calls = 0

def counted(v, kappa):
    global calls
    calls += 1
    return series(v, kappa)

special_fns._log_iv_series = counted
rc = main(sys.argv[1:])
print(calls)
sys.exit(rc)
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cli_import_leaves_scipy_out():
    done = _python("-c", "import sys, shmm.cli; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_train_and_predict_without_scipy(tmp_path):
    # kappas below 30 put the fitted concentrations in log_bessel_i's
    # ascending-series range
    planted = planted_model(3, 6, seed=3, kappas=[5.0, 10.0, 20.0],
                            loc_cov=np.diag([1e-5, 1e-5]))
    corpus = tmp_path / "corpus.ndjson"
    data_io.write_corpus(sample_corpus(planted, 40, 5, seed=4), corpus)

    train = _python("-c", _CLI_WITHOUT_SCIPY, "train", "--corpus", str(corpus), "--k", "3",
                    "--preset", "shmm", "--max-iters", "3", "--output-dir", str(tmp_path / "train"))
    assert train.returncode == 0, train.stderr
    assert int(train.stdout.split()[-1]) > 0

    predict = _python("-c", _CLI_WITHOUT_SCIPY, "predict",
                      "--model", str(tmp_path / "train" / "model.json"), "--corpus", str(corpus),
                      "--pool-size", "5", "--k-list", "1,5", "--dataset", "demo",
                      "--output-dir", str(tmp_path / "pred"))
    assert predict.returncode == 0, predict.stderr
    report = json.loads((tmp_path / "pred" / "predict_report.json").read_text())
    assert report["n_test_traces"] == 40
