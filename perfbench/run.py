"""shmm benchmark: `shmm train` / `shmm predict` end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload train-uniform --seed 0 --seconds 40 --trace 0

Run from the repository root.  Inputs are generated from --seed
(inputs.py); the program is the CLI in ./src, run in a fresh child process
per timed run, one at a time, with BLAS pinned to one thread.

--trace 0 repeats the command for --seconds (at least three times) and
reports the end-to-end metrics as medians.  --trace 1 alternates untraced
and traced runs (tracing.py) and reports the per-layer metrics.  Every
run's outputs are checked against references fixed before timing
(oracle.py, reference.json); a run that exits nonzero or fails its check
counts as failed.  The last line of stdout is the result JSON; the line
before it records the environment and the per-workload detail.

This process only orchestrates: set-up, references and checks run in
child processes too.  Linux carries a parent's peak RSS into a child
across exec, so a large harness would inflate the children's peak RSS.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: BLAS pinned to one thread in every child: the multi-threaded default
#: made the M-step slower and noisier on two cores.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to the last usable CPU.

    Unpinned children were migrated between CPUs hundreds of times per
    run, and their run time spread about twice as wide.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


#: End-to-end metrics, in output order, with their units.
E2E = (
    ("setup_s", "s"),        # median time to generate and write the inputs
    ("run_s", "s"),          # median wall time of the CLI child
    ("work_per_s", "1/s"),   # train: records x EM iterations / run_s; predict: queries / run_s
    ("peak_rss_mb", "MB"),   # peak RSS of the median child, from its own rusage
    ("quality", "score"),    # train: final loglik per record; predict: accuracy@5
)

SETUP_REPS = 3
MIN_TIMED_RUNS = 3
STARTUP_REPS = 3
#: Every run must end within 180 s; leave room for the checks after the last child.
DEADLINE_S = 160.0
#: Relative slack for EM monotonicity and the reference loglik (as in the
#: acceptance suite).
LOGLIK_RTOL = 1e-8
REFERENCE_FILE = HERE / "reference.json"


class HarnessError(RuntimeError):
    """The benchmark could not run at all (no result is printed)."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))), **BLAS_ENV)


@dataclass
class Spawned:
    wall_s: float
    rss_mb: float
    code: int
    stdout: Path


def spawn(argv: list, log_dir: Path, deadline: float) -> Spawned:
    """Run one child to completion, reaped with wait4 to read its own peak RSS.

    Past the deadline the child is killed (and reported with its signal).
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    stdout = log_dir / "stdout.txt"
    with open(stdout, "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        reaped = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(deadline - time.perf_counter(), 1.0))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Spawned(reaped["end"] - started, reaped["usage"].ru_maxrss * 1024 / 1e6,
                   proc.returncode, stdout)


def helper(script: str, args: list, log_dir: Path, deadline: float) -> dict:
    """Run one of the benchmark's own scripts in a child; its last stdout line is JSON."""
    done = spawn([sys.executable, str(HERE / script), *args], log_dir, deadline)
    lines = done.stdout.read_text().splitlines()
    if done.code != 0 or not lines:
        err = (log_dir / "stderr.txt").read_text().strip().splitlines()[-1:]
        raise HarnessError(f"{script} {' '.join(args[:1])} exited with {done.code}: {err}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Checks one workload's outputs against references fixed before timing.

    train: likelihood.csv is non-decreasing within 1e-8 relative slack and
    has max_iters rows; model.json loads with K states; the final loglik is
    within 1e-8 relative of reference.json for this seed (when listed) and
    at most the saved model's loglik under the oracle's forward pass.
    predict: n_test and the insufficient-pool count equal the oracle's, and
    every accuracy@K is within one query of it.
    Every run's outputs, timing columns aside, must be byte-identical to
    the first run's.
    """

    def __init__(self, workload, input_dir: Path, seed: int, smoke: bool, log_dir: Path,
                 deadline: float):
        self.workload = workload
        self.input_dir = input_dir
        self.log_dir = log_dir
        self.deadline = deadline
        self.verdicts: dict[str, tuple[list, dict]] = {}
        self.first_digest = None
        if workload.command == "train":
            table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
            ref = table.get(f"{workload.name}{'@smoke' if smoke else ''}", {}).get(str(seed))
            self.reference = None if ref is None else float(ref)
        else:
            self.reference = helper("oracle.py", ["predict", "--inputs", str(input_dir)],
                                    log_dir / "oracle", deadline)
            self.reference["accuracy"] = {int(k): v
                                          for k, v in self.reference["accuracy"].items()}

    def check(self, out_dir: Path) -> tuple[list, dict]:
        """(problems, facts) for one run's output directory."""
        names = (("model.json", "likelihood.csv") if self.workload.command == "train"
                 else ("accuracy.csv", "predict_report.json"))
        paths = [out_dir / n for n in names]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"], {}
        digest = self._digest(*paths)
        if self.first_digest is None:
            self.first_digest = digest
        if digest not in self.verdicts:
            check = self._train if self.workload.command == "train" else self._predict
            try:
                self.verdicts[digest] = check(*paths)
            except (ValueError, KeyError, IndexError) as exc:
                self.verdicts[digest] = ([f"unreadable output: {type(exc).__name__}: {exc}"], {})
        problems, facts = self.verdicts[digest]
        if digest != self.first_digest:
            problems = problems + ["outputs differ from the first run's on the same inputs"]
        return problems, facts

    def _digest(self, *paths: Path) -> str:
        """Digest of the outputs without their timing fields (likelihood.csv seconds)."""
        h = hashlib.sha256()
        for path in paths:
            if path.name == "likelihood.csv":
                with open(path, newline="") as fh:
                    h.update(repr([row[:2] for row in csv.reader(fh)]).encode())
            else:
                h.update(path.read_bytes())
        return h.hexdigest()

    def _train(self, model_path: Path, lik_path: Path):
        w = self.workload
        problems = []
        with open(lik_path, newline="") as fh:
            logliks = [float(row["loglik"]) for row in csv.DictReader(fh)]
        if len(logliks) != w.max_iters:
            problems.append(f"{len(logliks)} EM iterations, expected {w.max_iters}")
        for i, (prev, curr) in enumerate(zip(logliks, logliks[1:]), start=1):
            if curr < prev - LOGLIK_RTOL * abs(prev):
                problems.append(f"loglik fell at iteration {i}: {prev!r} -> {curr!r}")
        final = logliks[-1]
        if self.reference is not None and not (
                abs(final - self.reference) <= LOGLIK_RTOL * abs(self.reference)):
            problems.append(f"final loglik {final!r} differs from reference {self.reference!r}")
        oracle = helper("oracle.py", ["train", "--inputs", str(self.input_dir),
                                      "--model", str(model_path)],
                        self.log_dir / f"oracle-{len(self.verdicts)}", self.deadline)
        if "load_error" in oracle:
            problems.append(f"model.json does not load: {oracle['load_error']}")
        elif oracle["n_states"] != w.k:
            problems.append(f"model has {oracle['n_states']} states, expected {w.k}")
        # EM cannot lower the likelihood, so the saved model scores at least
        # the last reported loglik under an independent forward pass.
        elif not oracle["saved_loglik"] >= final - LOGLIK_RTOL * abs(final):
            problems.append(f"saved model loglik {oracle['saved_loglik']!r} is below "
                            f"the final EM loglik {final!r}")
        return problems, {"final_loglik": final, "em_iters": len(logliks)}

    def _predict(self, acc_path: Path, report_path: Path):
        ref = self.reference
        with open(acc_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        accuracy = {int(r["K"]): float(r["accuracy"]) for r in rows}
        n_test = {int(r["n_test"]) for r in rows}
        insufficient = json.loads(report_path.read_text())["n_insufficient_pools"]
        problems = []
        if n_test != {ref["n_test"]}:
            problems.append(f"n_test {sorted(n_test)} != reference {ref['n_test']}")
        if insufficient != ref["n_insufficient_pools"]:
            problems.append(f"{insufficient} insufficient pools != reference "
                            f"{ref['n_insufficient_pools']}")
        for k, expected in ref["accuracy"].items():
            got = accuracy.get(k)
            if got is None or abs(got - expected) * ref["n_test"] > 1.0 + 1e-9:
                problems.append(f"acc@{k} {got!r} not within one query of reference {expected!r}")
        return problems, {"accuracy": accuracy, "n_test": ref["n_test"],
                          "n_insufficient_pools": insufficient}


# ---------------------------------------------------------------------------
# environment


def environment(workload_name: str, seed: int, smoke: bool, versions: dict, cpu: int) -> dict:
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level] = out.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            caches[level] = "unknown"
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {
        "workload": workload_name, "seed": seed, "smoke": smoke, **versions,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV, "pinned_cpu": cpu, "l2_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_bytes": caches["LEVEL3_CACHE_SIZE"], "commit": commit,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the run


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    out_dir: Path
    traced: bool
    problems: list


def _median(values):
    return statistics.median(values) if values else None


def run(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    t_begin = time.perf_counter()
    deadline = t_begin + DEADLINE_S
    cpu = pin_to_one_cpu()
    work = WORK / f"{workload.name}{'-smoke' if smoke else ''}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    input_dir = work / "inputs"
    problems: list[str] = []

    # set-up: generate and write the inputs SETUP_REPS times, keep the median
    setup = helper("inputs.py", ["--workload", workload.name, "--seed", str(seed),
                                 "--out", str(input_dir), "--reps", str(SETUP_REPS),
                                 *(["--smoke"] if smoke else [])], work / "setup", deadline)
    deterministic = len(set(setup["digests"])) == 1
    if not deterministic:
        problems.append("set-up is not deterministic: inputs differ between repetitions")
    # flush the inputs now, so that their writeback does not overlap the timed runs
    for path in input_dir.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())

    python = sys.executable
    startup = []
    for i in range(STARTUP_REPS if trace else 1):  # untraced: a single warm-up import
        done = spawn([python, "-c", "import shmm.cli"], work / f"startup-{i}", deadline)
        if done.code != 0:
            raise HarnessError(f"`import shmm.cli` exited with {done.code}")
        startup.append(done.wall_s)

    checker = Checker(workload, input_dir, seed, smoke, work, deadline)
    children: list[Child] = []

    def timed_run(traced: bool) -> None:
        out_dir = work / f"run-{len(children)}"
        argv = workloads.cli_args(workload, input_dir, out_dir)
        if traced:
            cmd = [python, str(HERE / "tracing.py"), "--out", str(out_dir / "spans.json"),
                   "--run-id", f"{work.name}-{os.getpid()}-{len(children)}", "--", *argv]
            out_dir.mkdir(parents=True, exist_ok=True)
        else:
            cmd = [python, "-m", "shmm.cli", *argv]
        done = spawn(cmd, out_dir, deadline)
        found = [f"exit code {done.code}"] if done.code != 0 else checker.check(out_dir)[0]
        children.append(Child(done.wall_s, done.rss_mb, out_dir, traced, found))

    # untraced runs (each followed by a traced one under --trace 1) until the
    # next round would pass --seconds, with a minimum number of rounds
    loop_start = time.perf_counter()
    min_rounds = 1 if trace else MIN_TIMED_RUNS
    rounds = 0
    while True:
        timed_run(False)
        if trace:
            timed_run(True)
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / rounds
        if time.perf_counter() + 2 * per_round > deadline:
            if rounds < min_rounds:
                problems.append("stopped early to stay within the run deadline")
            break
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break

    failed = sum(1 for c in children if c.problems)
    for c in children:
        problems.extend(f"{c.out_dir.name}: {p}" for p in c.problems)
    good = [c for c in children if not c.problems]
    untraced = [c for c in good if not c.traced]
    facts = checker.check(good[0].out_dir)[1] if good else {}
    run_s = _median([c.wall_s for c in untraced])

    detail = {"timed_runs": len(children), "failed_runs": failed,
              "fail_rate": failed / len(children),
              "run_s_samples": [round(c.wall_s, 4) for c in untraced],
              "setup_s_samples": [round(s, 4) for s in setup["setup_s"]],
              "n_traces": setup["n_traces"], "n_records": setup["n_records"],
              "setup_deterministic": deterministic}
    work_rate = quality = None
    if facts and run_s:
        if workload.command == "train":
            work_rate = setup["n_records"] * facts["em_iters"] / run_s
            quality = facts["final_loglik"] / setup["n_records"]
            detail.update(record_iters_per_s=work_rate, loglik_per_record=quality,
                          final_loglik=facts["final_loglik"], em_iters=facts["em_iters"],
                          reference_loglik=checker.reference)
        else:
            work_rate = facts["n_test"] / run_s
            quality = facts["accuracy"][5]
            detail.update(queries_per_s=work_rate, acc_at_1=facts["accuracy"][1],
                          acc_at_5=facts["accuracy"][5], n_test=facts["n_test"],
                          insufficient_pools=facts["n_insufficient_pools"])

    if trace:
        traced = [c for c in good if c.traced]
        docs = [json.loads((c.out_dir / "spans.json").read_text()) for c in traced]
        per_run = [
            tracing.layer_metrics(doc, {
                "write_corpus_s": _median(setup["write_corpus_s"]),
                "startup_s": _median(startup),
                "run_s": c.wall_s,
                "untraced_run_s": run_s,
            })
            for doc, c in zip(docs, traced)
        ] if run_s else []
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            values = [m[name] for m in per_run]
            value = None if not values or None in values else statistics.median(values)
            if value is None:
                print(f"warning: per-layer metric {name} is missing", file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
        if docs:
            problems.extend(f"traced name {name} not found; its metrics are missing"
                            for name in docs[-1]["missing"])
            shutil.copy(traced[-1].out_dir / "spans.json",
                        results_dir / f"{work.name}.spans.json")
    else:
        by_wall = sorted(untraced, key=lambda c: c.wall_s)
        e2e = {
            "setup_s": _median(setup["setup_s"]),
            "run_s": run_s,
            "work_per_s": work_rate,
            "peak_rss_mb": by_wall[len(by_wall) // 2].rss_mb if by_wall else None,
            "quality": quality,
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}

    correct = failed == 0 and deterministic
    if not trace:
        correct = correct and all(m["value"] is not None for m in metrics.values())
    detail["wall_s"] = time.perf_counter() - t_begin
    record = {
        "environment": environment(workload.name, seed, smoke, setup["versions"], cpu),
        "detail": detail,
        "problems": problems,
        "result": {"correct": correct, "attempted": len(children), "failed": failed,
                   "metrics": metrics},
    }
    (results_dir / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the timed command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/50 of the workload size, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "shmm" / "cli.py").is_file():
        print(f"error: the program is not here: {SRC / 'shmm'} is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    try:
        record = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({k: record[k] for k in ("environment", "detail", "problems")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
