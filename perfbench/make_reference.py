"""Regenerate reference.json: the final EM loglik of each train workload, per seed.

    python3 perfbench/make_reference.py --seeds 0-31 [--smoke]

Runs `shmm train` once per workload and seed on the benchmark's inputs,
checks the outputs as a timed run would (minus the reference itself), and
merges the final loglik into reference.json.  Run it only at a commit
whose training results are trusted: afterwards every benchmark run on a
listed seed fails if its final loglik moves by more than 1e-8 relative.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))

    table = json.loads(run.REFERENCE_FILE.read_text()) if run.REFERENCE_FILE.exists() else {}
    for w in workloads.WORKLOADS.values():
        if w.command != "train":
            continue
        key = f"{w.name}{'@smoke' if args.smoke else ''}"
        for seed in range(lo, hi + 1):
            work = run.WORK / f"reference-{key}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            deadline = time.perf_counter() + run.DEADLINE_S
            run.helper("inputs.py", ["--workload", w.name, "--seed", str(seed),
                                     "--out", str(work / "inputs"),
                                     *(["--smoke"] if args.smoke else [])],
                       work / "setup", deadline)
            out = work / "out"
            done = run.spawn([sys.executable, "-m", "shmm.cli",
                              *workloads.cli_args(w, work / "inputs", out)], out, deadline)
            # seed -1 is never listed: this run makes the reference it would check
            checker = run.Checker(w, work / "inputs", seed=-1, smoke=args.smoke,
                                  log_dir=work, deadline=deadline)
            problems, facts = (checker.check(out) if done.code == 0
                               else ([f"exit code {done.code}"], {}))
            if problems:
                print(f"{key} seed {seed}: not recorded: {problems}", file=sys.stderr)
                return 1
            table.setdefault(key, {})[str(seed)] = repr(facts["final_loglik"])
            print(f"{key} seed {seed}: {facts['final_loglik']!r}")
            shutil.rmtree(work, ignore_errors=True)
        run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
