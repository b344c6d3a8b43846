"""Workload definitions for the shmm benchmark.

Every workload runs one real CLI command (`shmm train` or `shmm predict`)
on inputs that inputs.py generates from a workload seed with the
package's own planted-model generator (`synth.planted_model` /
`synth.sample_corpus`).  The program only ever sees the generated files.
This module imports nothing heavy: the harness process that reads it
stays small, so the peak RSS its children inherit at exec stays below
theirs.

Sizes are the probe sizes that motivated each workload (1500x20 uniform
traces, 3300 and 2400 mixed-length traces) scaled to 25-40 %, so that one
run repeats the command five to eight times and reports a median inside
the run budget; the layer shares that make each workload worth having
survive the scaling (see `why` and the layer map below).  Smoke mode
shrinks every workload to 1/50 of the probe size, for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Mixed trace lengths follow 1 + Geometric(1/MEAN_EXTRA), capped: heavy
#: tailed like real check-in histories, many short traces and a few long
#: ones (inputs.mixed_lengths).
MIXED_MEAN_EXTRA = 12
MIXED_MAX_LEN = 200

#: Prediction protocol (the CLI defaults, spelled out so a default change
#: cannot silently change the workload).
PREDICT_ARGS = ("--dist-thresh", "3500", "--time-thresh", "300",
                "--pool-size", "10", "--k-list", "1,5,10", "--seed", "0")
K_LIST = (1, 5, 10)

CORPUS_FILE = "corpus.ndjson"
MODEL_FILE = "model.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str          # "train" or "predict"
    k: int                # planted states (and trained states for train)
    p: int                # embedding dimension
    n_traces: int
    trace_len: int | None  # fixed length, or None for the mixed length law
    preset: str = "shmm"
    max_iters: int = 0
    smoke_traces: int = 0

    def scaled(self, smoke: bool) -> int:
        return self.smoke_traces if smoke else self.n_traces


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-uniform",
            why=("shmm preset, K=30, one trace length: bulk compute in k-means init, "
                 "large forward-backward batches and 30 vMF kappa solves per iteration"),
            command="train", k=30, p=30, n_traces=400, trace_len=20,
            preset="shmm", max_iters=4, smoke_traces=30,
        ),
        Workload(
            name="train-mixed",
            why=("ghmm preset, K=10, heavy-tailed trace lengths: forward-backward is "
                 "overhead-bound over many small length groups and vmf is bypassed"),
            command="train", k=10, p=30, n_traces=850, trace_len=None,
            preset="ghmm", max_iters=8, smoke_traces=66,
        ),
        Workload(
            name="predict-mixed",
            why=("accuracy@K over 3.5 km / 300 s candidate pools: pool building scans the "
                 "whole index per query and scoring makes many tiny emission calls"),
            command="predict", k=30, p=30, n_traces=900, trace_len=None,
            smoke_traces=48,
        ),
    )
}

# Which end-to-end metric each per-layer metric (tracing.PER_LAYER) should
# move, and on which workload.  Written down before measuring, so that a
# change to one layer can be checked against it.
#
#   data_io.read_corpus_s, data_io.corpus_bytes     run_s on all three workloads
#   data_io.write_corpus_s                          setup_s on all three workloads
#   data_io.index_build_s, build_pools_s,           work_per_s (queries/s) on predict-mixed
#     haversine_s, pool_pairs_scanned,
#     pool_candidates_mean, insufficient_pools
#   hmm_core.init_s, init_pct                       run_s on train-uniform
#   hmm_core.em_s, em_iter_s, em_iters,             work_per_s (record-iterations/s) on
#     fb_self_s, length_groups                        train-mixed (overhead-bound) and
#                                                     train-uniform (compute-bound)
#   hmm_core.score_next_s, score_next_calls,        work_per_s (queries/s) on predict-mixed
#     score_next_p50_ms, score_next_p99_ms,
#     stack_records_s
#   emission.log_emission_matrix_s, _calls,         work_per_s on predict-mixed (many tiny
#     cells_per_s                                     calls) and run_s on train-mixed
#   emission.m_step_s, m_step_calls, empty_states   run_s on train-uniform
#   vmf.*                                           run_s on train-uniform; all 0 on
#                                                     train-mixed (ghmm bypasses vmf)
#   special_fns.bessel_ratio_calls,                 explain vmf.kappa_solve_s (counts only:
#     log_bessel_calls                                timing tiny calls distorts them)
#   cli.startup_s                                   part of run_s on every workload
#   hmm_core.emission_bytes, fb_batch_bytes         computed working set, explains peak_rss_mb
#   trace.run_s, trace.overhead_pct                 cost of tracing against untraced run_s


def cli_args(workload: Workload, input_dir, out_dir) -> list[str]:
    """Arguments after `shmm` for one run of the workload's command."""
    corpus = f"{input_dir}/{CORPUS_FILE}"
    if workload.command == "train":
        return ["train", "--corpus", corpus, "--k", str(workload.k),
                "--preset", workload.preset, "--rel-tol", "0",
                "--max-iters", str(workload.max_iters), "--seed", "0",
                "--output-dir", str(out_dir)]
    return ["predict", "--model", f"{input_dir}/{MODEL_FILE}", "--corpus", corpus,
            "--dataset", workload.name, *PREDICT_ARGS, "--output-dir", str(out_dir)]
