"""Traced run: per-layer spans around the program's public functions.

Run as a child process in place of `python -m shmm.cli`:

    python perfbench/tracing.py --out spans.json --run-id ID -- train --corpus ...

It wraps, from outside, the names each layer's callers look up (for
example `hmm_core.log_emission_matrix` is the name `_e_step` and
`score_next` call), then calls `shmm.cli.main(argv)` in-process.  Spans
(name, start, end, parent) and counts are kept in memory and written out
once, at the end.  Private helpers such as `_kmeans_locations` or
`_fb_batch` are not wrapped; their time is derived from the spans around
them (see `layer_metrics`).

A wrapped name that no longer exists is reported as missing: every metric
that needs it is emitted as null with a warning, never as 0.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import warnings
import statistics
from collections import Counter

#: (span name, module, attribute path).  The attribute is replaced on the
#: module (or class) where the caller looks it up.
TIMED = (
    ("cli.baum_welch", "shmm.cli", "baum_welch"),
    ("hmm_core.log_emission_matrix", "shmm.hmm_core", "log_emission_matrix"),
    ("hmm_core.m_step_state", "shmm.hmm_core", "m_step_state"),
    ("hmm_core.stack_records", "shmm.hmm_core", "stack_records"),
    ("emission.fit_vmf", "shmm.emission", "fit_vmf"),
    ("vmf.estimate_kappa", "shmm.vmf", "estimate_kappa"),
    ("vmf.solve_concentration", "shmm.vmf", "solve_concentration"),
    ("data_io.read_corpus", "shmm.data_io", "read_corpus"),
    ("data_io.RecordIndex.from_traces", "shmm.data_io", "RecordIndex.from_traces"),
    ("data_io.build_pools", "shmm.data_io", "build_pools"),
    ("data_io.haversine_m", "shmm.data_io", "haversine_m"),
    ("data_io.evaluate_prediction", "shmm.data_io", "evaluate_prediction"),
    ("data_io.score_next", "shmm.data_io", "score_next"),
)

#: Counted, not timed: these calls take microseconds and a span each would
#: distort the time around them.
COUNTED = (
    ("vmf.bessel_ratio_a", "shmm.vmf", "bessel_ratio_a"),
    ("vmf.log_bessel_i", "shmm.vmf", "log_bessel_i"),
)

#: Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    ("data_io.read_corpus_s", "s"),
    ("data_io.corpus_bytes", "bytes"),
    ("data_io.write_corpus_s", "s"),
    ("data_io.index_build_s", "s"),
    ("data_io.build_pools_s", "s"),
    ("data_io.haversine_s", "s"),
    ("data_io.pool_pairs_scanned", "count"),
    ("data_io.pool_candidates_mean", "count"),
    ("data_io.insufficient_pools", "count"),
    ("hmm_core.init_s", "s"),
    ("hmm_core.init_pct", "%"),
    ("hmm_core.em_s", "s"),
    ("hmm_core.em_iter_s", "s"),
    ("hmm_core.em_iters", "count"),
    ("hmm_core.fb_self_s", "s"),
    ("hmm_core.length_groups", "count"),
    ("hmm_core.score_next_s", "s"),
    ("hmm_core.score_next_calls", "count"),
    ("hmm_core.score_next_p50_ms", "ms"),
    ("hmm_core.score_next_p99_ms", "ms"),
    ("hmm_core.stack_records_s", "s"),
    ("hmm_core.emission_bytes", "bytes"),
    ("hmm_core.fb_batch_bytes", "bytes"),
    ("emission.log_emission_matrix_s", "s"),
    ("emission.log_emission_matrix_calls", "count"),
    ("emission.cells_per_s", "1/s"),
    ("emission.m_step_s", "s"),
    ("emission.m_step_calls", "count"),
    ("emission.empty_states", "count"),
    ("vmf.fit_vmf_s", "s"),
    ("vmf.fit_vmf_calls", "count"),
    ("vmf.kappa_solve_s", "s"),
    ("vmf.newton_iters", "count"),
    ("vmf.newton_fallbacks", "count"),
    ("vmf.kappa_caps", "count"),
    ("vmf.kappa_zeros", "count"),
    ("vmf.log_norm_cache_hit_ratio", "ratio"),
    ("special_fns.bessel_ratio_calls", "count"),
    ("special_fns.log_bessel_calls", "count"),
    ("cli.startup_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self.facts: dict = {}
        self.missing: list[str] = []
        self.warning_registry: dict = {}
        self._stack: list[int] = []

    def timed(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter_ns(), None,
                    self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def document(self) -> dict:
        return {"run_id": self.run_id, "missing": self.missing,
                "counts": dict(self.counts), "facts": self.facts,
                "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                          for n, s, e, p in self.spans]}


# ---------------------------------------------------------------------------
# observers: counts read from arguments and results at the layer boundary


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _obs_read_corpus(tr, args, kwargs, result):
    tr.facts["corpus_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _obs_baum_welch(tr, args, kwargs, result):
    corpus = _arg(args, kwargs, 0, "corpus")
    k = int(_arg(args, kwargs, 1, "k"))
    lengths = Counter(len(t) for t in corpus)
    tr.facts.update(em_iters=len(result[1]), length_groups=len(lengths),
                    fb_batch_bytes=max(lengths.values()) * k * k * 8)


def _obs_emission(tr, args, kwargs, result):
    tr.counts["emission_cells"] += int(result.size)
    tr.facts["emission_bytes"] = max(tr.facts.get("emission_bytes", 0), int(result.nbytes))


def _obs_estimate_kappa(tr, args, kwargs, result):
    tr.counts["newton_iters"] += int(result.iterations)


def _obs_solve(tr, args, kwargs, result):
    tr.counts["newton_fallbacks"] += int(bool(result.used_fallback))


def _obs_build_pools(tr, args, kwargs, result):
    test = _arg(args, kwargs, 0, "test")
    index = _arg(args, kwargs, 1, "all_records")
    tr.facts.update(
        pool_pairs_scanned=len(test) * len(index.records),
        pool_candidates_mean=statistics.fmean([len(p.candidates) for p in result]),
        insufficient_pools=sum(bool(p.insufficient) for p in result),
    )


OBSERVERS = {
    "data_io.read_corpus": _obs_read_corpus,
    "cli.baum_welch": _obs_baum_welch,
    "hmm_core.log_emission_matrix": _obs_emission,
    "vmf.estimate_kappa": _obs_estimate_kappa,
    "vmf.solve_concentration": _obs_solve,
    "data_io.build_pools": _obs_build_pools,
}

_KAPPA_WARNINGS = {"DegenerateResultantWarning": "kappa_caps",
                   "NearUniformWarning": "kappa_zeros"}


def _count_warnings(tracer, fn):
    """Count the vmf warnings a call raises, then re-emit them unchanged."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            key = _KAPPA_WARNINGS.get(w.category.__name__)
            if key:
                tracer.counts[key] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   registry=tracer.warning_registry)
        return result
    return wrapper


def _resolve(module_name, path):
    """(owner, attribute, current value) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        return None if raw is None else (owner, attr, raw)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def install(tracer: Tracer) -> None:
    """Replace every wrapped name; record the ones that are gone."""
    for counted, targets in ((False, TIMED), (True, COUNTED)):
        for name, module_name, path in targets:
            found = _resolve(module_name, path)
            if found is None:
                tracer.missing.append(name)
                warnings.warn(f"traced name {module_name}.{path} not found; "
                              f"metrics that need {name} are reported as missing")
                continue
            owner, attr, value = found
            is_classmethod = isinstance(value, classmethod)
            fn = value.__func__ if is_classmethod else value
            if counted:
                wrapped = tracer.counted(name, fn)
            else:
                if name == "vmf.estimate_kappa":
                    fn = _count_warnings(tracer, fn)
                wrapped = tracer.timed(name, fn, OBSERVERS.get(name))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)


def _log_norm_cache_info():
    fn = getattr(importlib.import_module("shmm.vmf"), "vmf_log_norm_const", None)
    info = getattr(fn, "cache_info", None)
    return None if info is None else info()._asdict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    install(tracer)
    from shmm import cli

    try:
        code = cli.main(cli_args)
    finally:
        tracer.facts["log_norm_cache"] = _log_norm_cache_info()
        with open(args.out, "w") as fh:
            json.dump(tracer.document(), fh)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from a written trace


def self_times_ns(spans: list[dict]) -> list[int]:
    """Span duration minus the durations of its direct children."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    out = list(own)
    for s, d in zip(spans, own):
        if s["parent"] is not None:
            out[s["parent"]] -= d
    return out


def layer_metrics(doc: dict, extra: dict) -> dict:
    """Per-layer metric values (None = missing) from one trace document.

    `extra` carries what the harness measured outside the traced child:
    write_corpus_s, startup_s, run_s (traced wall) and untraced_run_s.
    """
    spans = doc["spans"]
    missing = set(doc["missing"])
    counts = Counter(doc["counts"])
    facts = doc["facts"]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return None if name in missing else sum((dur(s) for s in named(name)), 0.0)

    def calls(name):
        return None if name in missing else len(named(name))

    def needs(names, value):
        return None if missing.intersection(names) else value()

    lem, mstep = "hmm_core.log_emission_matrix", "hmm_core.m_step_state"
    bw = named("cli.baum_welch")
    em_window = None
    if bw:
        inside = [s for s in spans if s["name"] == lem and s["start_ns"] >= bw[0]["start_ns"]
                  and s["end_ns"] <= bw[0]["end_ns"]]
        if inside:
            em_window = (bw[0]["start_ns"], inside[0]["start_ns"], bw[0]["end_ns"])

    def init_s():
        return 0.0 if em_window is None else (em_window[1] - em_window[0]) / 1e9

    def em_s():
        return 0.0 if em_window is None else (em_window[2] - em_window[1]) / 1e9

    def fb_self_s():
        if em_window is None:
            return 0.0
        children = sum(dur(s) for s in spans if s["name"] in (lem, mstep)
                       and s["start_ns"] >= em_window[1] and s["end_ns"] <= em_window[2])
        return em_s() - children

    def em_iter_s():
        iters = facts.get("em_iters", 0)
        return em_s() / iters if iters else 0.0

    score_ms = sorted(dur(s) * 1e3 for s in named("data_io.score_next"))

    def pct(q):
        """Linearly interpolated percentile (numpy's default rule); 0 with no calls."""
        if not score_ms:
            return 0.0
        pos = (len(score_ms) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(score_ms) - 1)
        return score_ms[lo] + (score_ms[hi] - score_ms[lo]) * (pos - lo)

    def cells_per_s():
        t = total(lem)
        return counts["emission_cells"] / t if t else 0.0

    def cache_ratio():
        info = facts.get("log_norm_cache")
        if info is None:
            return None
        lookups = info["hits"] + info["misses"]
        return info["hits"] / lookups if lookups else 0.0

    run_s = extra["run_s"]
    values = {
        "data_io.read_corpus_s": total("data_io.read_corpus"),
        "data_io.corpus_bytes": needs({"data_io.read_corpus"},
                                      lambda: facts.get("corpus_bytes", 0)),
        "data_io.write_corpus_s": extra["write_corpus_s"],
        "data_io.index_build_s": total("data_io.RecordIndex.from_traces"),
        "data_io.build_pools_s": total("data_io.build_pools"),
        "data_io.haversine_s": total("data_io.haversine_m"),
        "data_io.pool_pairs_scanned": needs({"data_io.build_pools"},
                                            lambda: facts.get("pool_pairs_scanned", 0)),
        "data_io.pool_candidates_mean": needs({"data_io.build_pools"},
                                              lambda: facts.get("pool_candidates_mean", 0.0)),
        "data_io.insufficient_pools": needs({"data_io.build_pools"},
                                            lambda: facts.get("insufficient_pools", 0)),
        "hmm_core.init_s": needs({"cli.baum_welch", lem}, init_s),
        "hmm_core.init_pct": needs({"cli.baum_welch", lem}, lambda: 100.0 * init_s() / run_s),
        "hmm_core.em_s": needs({"cli.baum_welch", lem}, em_s),
        "hmm_core.em_iter_s": needs({"cli.baum_welch", lem}, em_iter_s),
        "hmm_core.em_iters": needs({"cli.baum_welch"}, lambda: facts.get("em_iters", 0)),
        "hmm_core.fb_self_s": needs({"cli.baum_welch", lem, mstep}, fb_self_s),
        "hmm_core.length_groups": needs({"cli.baum_welch"},
                                        lambda: facts.get("length_groups", 0)),
        "hmm_core.score_next_s": total("data_io.score_next"),
        "hmm_core.score_next_calls": calls("data_io.score_next"),
        "hmm_core.score_next_p50_ms": needs({"data_io.score_next"}, lambda: pct(50)),
        "hmm_core.score_next_p99_ms": needs({"data_io.score_next"}, lambda: pct(99)),
        "hmm_core.stack_records_s": total("hmm_core.stack_records"),
        "hmm_core.emission_bytes": needs({lem}, lambda: facts.get("emission_bytes", 0)),
        "hmm_core.fb_batch_bytes": needs({"cli.baum_welch"},
                                         lambda: facts.get("fb_batch_bytes", 0)),
        "emission.log_emission_matrix_s": total(lem),
        "emission.log_emission_matrix_calls": calls(lem),
        "emission.cells_per_s": needs({lem}, cells_per_s),
        "emission.m_step_s": total(mstep),
        "emission.m_step_calls": calls(mstep),
        "emission.empty_states": needs({mstep}, lambda: counts[f"{mstep}:EmptyStateError"]),
        "vmf.fit_vmf_s": total("emission.fit_vmf"),
        "vmf.fit_vmf_calls": calls("emission.fit_vmf"),
        "vmf.kappa_solve_s": total("vmf.estimate_kappa"),
        "vmf.newton_iters": needs({"vmf.estimate_kappa"}, lambda: counts["newton_iters"]),
        "vmf.newton_fallbacks": needs({"vmf.solve_concentration"},
                                      lambda: counts["newton_fallbacks"]),
        "vmf.kappa_caps": needs({"vmf.estimate_kappa"}, lambda: counts["kappa_caps"]),
        "vmf.kappa_zeros": needs({"vmf.estimate_kappa"}, lambda: counts["kappa_zeros"]),
        "vmf.log_norm_cache_hit_ratio": cache_ratio(),
        "special_fns.bessel_ratio_calls": needs({"vmf.bessel_ratio_a"},
                                                lambda: counts["vmf.bessel_ratio_a"]),
        "special_fns.log_bessel_calls": needs({"vmf.log_bessel_i"},
                                              lambda: counts["vmf.log_bessel_i"]),
        "cli.startup_s": extra["startup_s"],
        "trace.run_s": run_s,
        "trace.overhead_pct": 100.0 * (run_s - extra["untraced_run_s"]) / extra["untraced_run_s"],
    }
    return values


if __name__ == "__main__":
    sys.exit(main())
