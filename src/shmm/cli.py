"""Command-line pipeline: preprocess, train, summarize, predict, synth.

Every command is a pure function of its inputs, configuration and seeds:
identical invocations produce byte-identical outputs except for
wall-clock timing fields.  Options may come from a JSON config file
(--config, keys named like the long flags with underscores); explicit
flags win over the file.

Outputs land in --output-dir as CSV/JSON:

* preprocess: corpus.ndjson + preprocess_report.json
* train:      model.json + likelihood.csv (iteration, loglik, seconds)
* summarize:  summary.csv
* predict:    accuracy.csv (dataset, K, accuracy, n_test, pool_size, seed)
              + predict_report.json
* synth:      <experiment>.csv (x, metric, value)
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import data_io, synth, text_embed
from .emission import SIGMA_T_FLOOR, VAR_FLOOR, EmissionConfig
from .hmm_core import (
    KMeansInit,
    NonFiniteLikelihoodError,
    StopCriteria,
    baum_welch,
    load_model,
    save_model,
)
from .records import SemanticRecord


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmm",
        description="Spherical hidden Markov models for semantic location traces.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", help="directory for outputs (default: .)")
        p.add_argument("--seed", type=int, help="master random seed (default: 0)")
        p.add_argument("--threads", type=int,
                       help="cap on worker threads (single-process pipeline; recorded)")

    p = sub.add_parser("preprocess", help="ingest raw NDJSON into an embedded trace corpus")
    add_common(p)
    p.add_argument("--input", help="raw NDJSON records (user_id, timestamp, lon, lat, text)")
    p.add_argument("--embeddings", help="keyword-vector file")
    p.add_argument("--delta-t", type=float, help="segmentation gap threshold, seconds (21600)")
    p.add_argument("--min-len", type=int, help="minimum trace length kept (2)")
    p.add_argument("--utc-offset", type=float, help="seconds added to UTC for time of day (0)")

    p = sub.add_parser("train", help="fit a model to a corpus by Baum-Welch EM")
    add_common(p)
    p.add_argument("--corpus", help="preprocessed corpus NDJSON")
    p.add_argument("--k", type=int, help="number of latent states")
    p.add_argument("--preset", help="emission preset: shmm | st-hmm | hmm | ghmm (shmm)")
    p.add_argument("--rel-tol", type=float, help="EM relative-improvement stop (1e-6)")
    p.add_argument("--max-iters", type=int, help="EM iteration cap (200)")
    p.add_argument("--sigma-t-floor", type=float, help=f"time SD floor, seconds ({SIGMA_T_FLOOR})")
    p.add_argument("--var-floor", type=float, help=f"variance floor ({VAR_FLOOR})")

    p = sub.add_parser("summarize", help="per-state table: location, time, kappa, keywords")
    add_common(p)
    p.add_argument("--model", help="model JSON")
    p.add_argument("--embeddings", help="keyword-vector file")
    p.add_argument("--k-keywords", type=int, help="keywords per state (10)")

    p = sub.add_parser("predict", help="next-record accuracy@K over candidate pools")
    add_common(p)
    p.add_argument("--model", help="model JSON")
    p.add_argument("--corpus", help="test corpus NDJSON")
    p.add_argument("--dataset", help="dataset label for the CSV (default: corpus stem)")
    p.add_argument("--dist-thresh", type=float, help="pool distance threshold, meters (3500)")
    p.add_argument("--time-thresh", type=float, help="pool time-of-day threshold, seconds (300)")
    p.add_argument("--pool-size", type=int, help="candidates per pool incl. truth (10)")
    p.add_argument("--k-list", help="comma-separated accuracy cutoffs (1,5,10)")

    p = sub.add_parser("synth", help="synthetic convergence / estimation experiments")
    add_common(p)
    p.add_argument("experiment", choices=sorted(synth.EXPERIMENTS),
                   help="which experiment to run")
    p.add_argument("--p", type=int, help="embedding dimension (100)")
    p.add_argument("--kappa", type=float, help="true concentration (100)")
    p.add_argument("--n", type=int, help="sample size (100000)")
    p.add_argument("--n-seeds", type=int, help="seeds per grid point (experiment default)")
    p.add_argument("--grid", help="comma-separated grid overriding the experiment default")
    return parser


def _load_config(path) -> dict:
    if not path:
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


class _Options:
    """Flag/config/default resolution; explicit flags win."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = vars(args)
        self._config = config

    def get(self, key, default=None, required=False):
        value = self._args.get(key)
        if value is None:
            value = self._config.get(key, default)
        if required and value is None:
            raise SystemExit(f"missing required option --{key.replace('_', '-')}")
        return value


def _out_dir(opts: _Options) -> Path:
    out = Path(opts.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emission_config(opts: _Options) -> EmissionConfig:
    return EmissionConfig.preset(
        opts.get("preset", "shmm"),
        sigma_t_floor=float(opts.get("sigma_t_floor", SIGMA_T_FLOOR)),
        var_floor=float(opts.get("var_floor", VAR_FLOOR)),
    )


def cmd_preprocess(opts: _Options) -> int:
    table = text_embed.load_keyword_vectors(Path(opts.get("embeddings", required=True)))
    input_path = Path(opts.get("input", required=True))
    if not input_path.exists():
        raise FileNotFoundError(f"input file {input_path} does not exist")
    delta_t = float(opts.get("delta_t", data_io.DEFAULT_DELTA_T))
    min_len = int(opts.get("min_len", data_io.DEFAULT_MIN_TRACE_LEN))
    utc_offset = float(opts.get("utc_offset", 0.0))
    out = _out_dir(opts)

    raw = []
    for doc in data_io.read_raw_ndjson(input_path):
        raw.append(
            (
                str(doc["user_id"]),
                data_io.parse_timestamp(doc["timestamp"]),
                float(doc["lon"]),
                float(doc["lat"]),
                str(doc.get("text", "")),
            )
        )
    messages = [text_embed.tokenize(text) for *_, text in raw]
    if messages:
        table = table.with_idf(text_embed.compute_idf(messages, table.vocabulary))

    by_user: dict[str, list[SemanticRecord]] = {}
    dropped_no_tokens = 0
    for (user_id, t_abs, lon, lat, text), tokens in zip(raw, messages):
        try:
            embedding = text_embed.embed_message(tokens, table)
        except text_embed.NoKnownTokensError:
            dropped_no_tokens += 1
            continue
        by_user.setdefault(user_id, []).append(
            SemanticRecord(
                user_id=user_id,
                t_abs=t_abs,
                t_day=data_io.to_time_of_day(t_abs, utc_offset),
                loc=np.array([lon, lat]),
                embedding=embedding,
                raw_text=text,
            )
        )

    traces = []
    dropped_short = 0
    for user_id in sorted(by_user):
        records = sorted(by_user[user_id], key=lambda r: r.t_abs)
        result = data_io.segment_history(records, delta_t=delta_t, min_len=min_len)
        traces.extend(result.traces)
        dropped_short += result.n_dropped_records

    corpus_path = out / "corpus.ndjson"
    data_io.write_corpus(traces, corpus_path)
    report = {
        "records_read": len(raw),
        "records_dropped_no_tokens": dropped_no_tokens,
        "records_dropped_short_traces": dropped_short,
        "n_users": len(by_user),
        "n_traces": len(traces),
        "n_records_kept": sum(len(t) for t in traces),
        "config": {
            "input": str(input_path),
            "embeddings": str(opts.get("embeddings")),
            "delta_t": delta_t,
            "min_len": min_len,
            "utc_offset": utc_offset,
            "threads": opts.get("threads"),
        },
    }
    (out / "preprocess_report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {corpus_path} ({len(traces)} traces)")
    return 0


def cmd_train(opts: _Options) -> int:
    corpus = data_io.read_corpus(Path(opts.get("corpus", required=True)))
    k = int(opts.get("k", required=True))
    config = _emission_config(opts)
    stop = StopCriteria(
        rel_tol=float(opts.get("rel_tol", 1e-6)),
        max_iters=int(opts.get("max_iters", 200)),
    )
    seed = int(opts.get("seed", 0))
    out = _out_dir(opts)

    model, history = baum_welch(corpus, k, config, init=KMeansInit(seed=seed), stop=stop)
    model_path = out / "model.json"
    save_model(model, model_path)
    _write_csv(
        out / "likelihood.csv",
        ["iteration", "loglik", "seconds"],
        [(i, f"{h.loglik!r}", f"{h.seconds:.6f}") for i, h in enumerate(history)],
    )
    print(f"wrote {model_path} (K={k}, {len(history)} EM iterations, "
          f"final loglik {history[-1].loglik:.4f})")
    return 0


def cmd_summarize(opts: _Options) -> int:
    model = load_model(Path(opts.get("model", required=True)))
    table = text_embed.load_keyword_vectors(Path(opts.get("embeddings", required=True)))
    if table.dim != model.embedding_dim:
        raise ValueError(
            f"keyword vectors have dim {table.dim} but the model expects "
            f"{model.embedding_dim}"
        )
    k_keywords = int(opts.get("k_keywords", 10))
    out = _out_dir(opts)

    rows = []
    for j, state in enumerate(model.states):
        if state.text is not None:
            kappa = f"{float(state.text.kappa)!r}"
            keywords = " ".join(
                text_embed.nearest_keywords(state.text.mu, table, min(k_keywords, len(table.vocabulary)))
            )
        else:
            kappa, keywords = "", ""
        order = np.argsort(-model.trans[j], kind="stable")[:5]
        transitions = "|".join(f"{int(z)}:{model.trans[j, z]:.6f}" for z in order)
        rows.append(
            (
                j,
                f"{float(state.mu_l[0])!r}",
                f"{float(state.mu_l[1])!r}",
                f"{float(state.mu_t)!r}",
                f"{float(state.sigma_t)!r}",
                kappa,
                keywords,
                transitions,
            )
        )
    path = out / "summary.csv"
    _write_csv(
        path,
        ["state", "mean_lon", "mean_lat", "mean_time_s", "sigma_t_s", "kappa",
         "top_keywords", "top_transitions"],
        rows,
    )
    print(f"wrote {path} ({model.n_states} states)")
    return 0


def cmd_predict(opts: _Options) -> int:
    model = load_model(Path(opts.get("model", required=True)))
    corpus_path = Path(opts.get("corpus", required=True))
    test = data_io.read_corpus(corpus_path)
    usable = [t for t in test if len(t) >= 2]
    if not usable:
        raise ValueError("test corpus has no traces of length >= 2")
    dist_thresh = float(opts.get("dist_thresh", 3500.0))
    time_thresh = float(opts.get("time_thresh", 300.0))
    pool_size = int(opts.get("pool_size", data_io.DEFAULT_POOL_SIZE))
    k_list = [int(x) for x in str(opts.get("k_list", "1,5,10")).split(",")]
    seed = int(opts.get("seed", 0))
    dataset = opts.get("dataset", corpus_path.stem)
    out = _out_dir(opts)

    index = data_io.RecordIndex.from_traces(usable)
    pools = data_io.build_pools(usable, index, dist_thresh, time_thresh, pool_size, seed)
    accuracy = data_io.evaluate_prediction(model, usable, pools, k_list)

    path = out / "accuracy.csv"
    _write_csv(
        path,
        ["dataset", "K", "accuracy", "n_test", "pool_size", "seed"],
        [(dataset, k, f"{accuracy[k]!r}", len(usable), pool_size, seed) for k in k_list],
    )
    report = {
        "dataset": str(dataset),
        "n_test_traces": len(usable),
        "n_skipped_short_traces": len(test) - len(usable),
        "n_insufficient_pools": sum(p.insufficient for p in pools),
        "config": {
            "dist_thresh": dist_thresh,
            "time_thresh": time_thresh,
            "pool_size": pool_size,
            "k_list": k_list,
            "seed": seed,
            "threads": opts.get("threads"),
        },
    }
    (out / "predict_report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}: " + ", ".join(f"acc@{k}={accuracy[k]:.4f}" for k in k_list))
    return 0


def cmd_synth(opts: _Options, experiment: str) -> int:
    import inspect

    fn = synth.EXPERIMENTS[experiment]
    accepted = set(inspect.signature(fn).parameters)
    kwargs = {}
    for key, cast in (("p", int), ("kappa", float), ("n", int), ("n_seeds", int), ("seed", int)):
        value = opts.get(key)
        if value is None:
            continue
        if key not in accepted:
            print(f"note: --{key.replace('_', '-')} does not apply to {experiment}; ignored",
                  file=sys.stderr)
            continue
        kwargs[key] = cast(value)
    grid = opts.get("grid")
    if grid is not None:
        values = [float(x) for x in str(grid).split(",")]
        grid_arg = {
            "newton_convergence": None,
            "estimation_vs_n": "n_grid",
            "estimation_vs_kappa": "kappa_grid",
            "estimation_vs_p": "p_grid",
        }[experiment]
        if grid_arg is None:
            raise ValueError("newton_convergence takes no --grid")
        if grid_arg in ("n_grid", "p_grid"):
            values = [int(x) for x in values]
        kwargs[grid_arg] = values

    rows = fn(**kwargs)
    out = _out_dir(opts)
    path = out / f"{experiment}.csv"
    _write_csv(path, ["x", "metric", "value"], [(x, m, f"{v!r}") for x, m, v in rows])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _Options(args, _load_config(args.config))
        if args.command == "preprocess":
            return cmd_preprocess(opts)
        if args.command == "train":
            return cmd_train(opts)
        if args.command == "summarize":
            return cmd_summarize(opts)
        if args.command == "predict":
            return cmd_predict(opts)
        if args.command == "synth":
            return cmd_synth(opts, args.experiment)
        parser.error(f"unknown command {args.command!r}")
    except (OSError, ValueError, KeyError, NonFiniteLikelihoodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
