"""Seeded input generation (the benchmark's set-up), run as a child process.

    python perfbench/inputs.py --workload train-mixed --seed 0 --out DIR [--smoke] [--reps 3]

Generates the workload's inputs with `synth.planted_model` /
`synth.sample_corpus`, writes the corpus with `data_io.write_corpus` (and
the planted model with `hmm_core.save_model` for predict), --reps times
into the same directory, and prints one JSON line: per-repetition set-up
and write times, a digest of the written files per repetition, and the
versions of the numerical stack.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shmm import data_io, hmm_core, synth

import workloads


def _seeds(seed: int, n: int) -> list[int]:
    """n independent 63-bit seeds derived from the workload seed."""
    return [int(s.generate_state(1, np.uint64)[0] >> np.uint64(1))
            for s in np.random.SeedSequence(seed).spawn(n)]


def mixed_lengths(n_traces: int) -> np.ndarray:
    """The n quantiles of 1 + Geometric(1/12), capped at 200.

    Every seed gets this same multiset of lengths (the seed only orders the
    traces and draws their contents): forward-backward cost follows the
    set of distinct lengths, which iid draws vary by +-15 % between seeds.
    """
    u = (np.arange(n_traces) + 0.5) / n_traces
    geometric = np.ceil(np.log1p(-u) / np.log1p(-1.0 / workloads.MIXED_MEAN_EXTRA))
    return np.minimum(1 + geometric.astype(int), workloads.MIXED_MAX_LEN)


def _mixed_corpus(model, n_traces: int, seed: int) -> list:
    """Traces with the mixed_lengths law, in seeded order."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(mixed_lengths(n_traces))
    traces = [None] * n_traces
    for length in np.unique(lengths):
        slots = np.flatnonzero(lengths == length)
        group = synth.sample_corpus(model, len(slots), int(length),
                                    int(rng.integers(2 ** 62)))
        for i, trace in zip(slots, group):
            traces[i] = trace
    for i, trace in enumerate(traces):
        for record in trace:
            record.user_id = f"user-{i}"
    return traces


@dataclass
class Inputs:
    corpus: Path
    model: Path | None
    n_traces: int
    n_records: int
    generate_s: float
    write_corpus_s: float
    write_model_s: float

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.write_corpus_s + self.write_model_s

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in (self.corpus, self.model):
            if path is not None:
                h.update(path.read_bytes())
        return h.hexdigest()


def generate_inputs(workload, seed: int, out_dir: Path, smoke: bool = False) -> Inputs:
    """Generate and write the workload's inputs for one seed, timed by phase."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model_seed, corpus_seed = _seeds(seed, 2)
    n_traces = workload.scaled(smoke)

    t0 = time.perf_counter()
    planted = synth.planted_model(workload.k, workload.p, model_seed % (2 ** 31))
    if workload.trace_len is None:
        traces = _mixed_corpus(planted, n_traces, corpus_seed)
    else:
        traces = synth.sample_corpus(planted, n_traces, workload.trace_len, corpus_seed)
    t1 = time.perf_counter()
    corpus = out_dir / workloads.CORPUS_FILE
    data_io.write_corpus(traces, corpus)
    t2 = time.perf_counter()
    model = None
    if workload.command == "predict":
        model = out_dir / workloads.MODEL_FILE
        hmm_core.save_model(planted, model)
    t3 = time.perf_counter()
    return Inputs(corpus=corpus, model=model, n_traces=len(traces),
                  n_records=sum(len(t) for t in traces),
                  generate_s=t1 - t0, write_corpus_s=t2 - t1, write_model_s=t3 - t2)


def versions() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reps", type=int, default=1)
    args = parser.parse_args(argv)

    reps, digests = [], []
    for _ in range(args.reps):
        reps.append(generate_inputs(workloads.WORKLOADS[args.workload], args.seed, args.out,
                                    args.smoke))
        digests.append(reps[-1].digest())
    print(json.dumps({
        "setup_s": [r.setup_s for r in reps],
        "write_corpus_s": [r.write_corpus_s for r in reps],
        "digests": digests,
        "n_traces": reps[0].n_traces,
        "n_records": reps[0].n_records,
        "versions": versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
