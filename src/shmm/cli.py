"""Command-line pipeline: preprocess, train, summarize, predict, synth.

Every command is a pure function of its inputs, configuration and seeds
(--seed, an integer >= 0: train, predict and synth): identical invocations
produce byte-identical outputs except for wall-clock timing fields.  A JSON
--config file may set any option of the subcommand (keys named like the
long flags with underscores; other keys are errors), each value read by
its flag's type as the text after the flag (2.7, true or [1] for an int
option is an error; null means unset).  Precedence: flag > config > default.

Each command reads and checks its inputs, computes, and only then creates
--output-dir and writes, so a run that fails leaves no output directory.
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
from .emission import SIGMA_T_FLOOR, VAR_FLOOR, EmissionConfig, text_direction
from .hmm_core import (
    EmptyCorpusError,
    KMeansInit,
    NonFiniteLikelihoodError,
    StopCriteria,
    baum_welch,
    check_embedding_dims,
    load_model,
    save_model,
)
from .records import SemanticRecord

#: Default of an option that must be set, by flag or by config file.
_REQUIRED = object()


def _comma_list(cast):
    """Argparse type: a comma-separated list of cast values."""
    def comma_list(text):
        return [cast(x) for x in text.split(",")]
    return comma_list


def _build_parser():
    """The shmm parser, and per subcommand the {dest: action} of its options."""
    parser = argparse.ArgumentParser(
        prog="shmm", description="Spherical hidden Markov models for semantic location traces.")
    parser.add_argument("--config", type=Path, help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, help, seeded):
        p = sub.add_parser(name, help=help)
        options = commands[name] = {}

        def option(flag, help, **kwargs):
            if kwargs.get("default") not in (None, _REQUIRED):
                help += " (%(default)s)"
            action = p.add_argument(flag, help=help, **kwargs)
            options[action.dest] = action

        option("--output-dir", type=Path, default=".", help="directory for outputs")
        if seeded:
            option("--seed", type=int, default=0, help="master random seed")
        return p, option

    _, option = add_command("preprocess", "ingest raw NDJSON into an embedded trace corpus", False)
    option("--input", type=Path, default=_REQUIRED,
           help="raw NDJSON records (user_id, timestamp, lon, lat, text)")
    option("--embeddings", default=_REQUIRED, help="keyword-vector file")
    option("--delta-t", type=float, default=data_io.DEFAULT_DELTA_T,
           help="segmentation gap threshold, seconds")
    option("--min-len", type=int, default=data_io.DEFAULT_MIN_TRACE_LEN,
           help="minimum trace length kept")
    option("--utc-offset", type=float, default=0.0, help="seconds added to UTC for time of day")

    _, option = add_command("train", "fit a model to a corpus by Baum-Welch EM", True)
    option("--corpus", type=Path, default=_REQUIRED, help="preprocessed corpus NDJSON")
    option("--k", type=int, default=_REQUIRED, help="number of latent states")
    option("--preset", default="shmm", help="preset: shmm | st-hmm | hmm | ghmm")
    option("--rel-tol", type=float, default=StopCriteria.rel_tol,
           help="EM relative-improvement stop")
    option("--max-iters", type=int, default=StopCriteria.max_iters, help="EM iteration cap")
    option("--sigma-t-floor", type=float, default=SIGMA_T_FLOOR, help="time SD floor, seconds")
    option("--var-floor", type=float, default=VAR_FLOOR, help="variance floor")

    _, option = add_command("summarize", "per-state table: location, time, kappa, keywords", False)
    option("--model", type=Path, default=_REQUIRED, help="model JSON")
    option("--embeddings", default=_REQUIRED, help="keyword-vector file")
    option("--k-keywords", type=int, default=10, help="keywords per state")

    _, option = add_command("predict", "next-record accuracy@K over candidate pools", True)
    option("--model", type=Path, default=_REQUIRED, help="model JSON")
    option("--corpus", type=Path, default=_REQUIRED, help="test corpus NDJSON")
    option("--dataset", help="dataset label for the CSV (default: corpus stem)")
    option("--dist-thresh", type=float, default=3500.0, help="pool distance threshold, meters")
    option("--time-thresh", type=float, default=300.0, help="pool time-of-day threshold, seconds")
    option("--pool-size", type=int, default=data_io.DEFAULT_POOL_SIZE,
           help="candidates per pool incl. truth")
    option("--k-list", type=_comma_list(int), default="1,5,10",
           help="comma-separated accuracy cutoffs")

    p, option = add_command("synth", "synthetic convergence / estimation experiments", True)
    p.add_argument("experiment", choices=sorted(["newton_convergence", *synth.ESTIMATION_GRIDS]),
                   help="which experiment to run")
    # None defaults let cmd_synth note a flag that does not apply; see synth.py for defaults
    option("--p", type=int, help="embedding dimension (100)")
    option("--kappa", type=float, help="true concentration (100)")
    option("--n", type=int, help="sample size (100000)")
    option("--n-seeds", type=int, help="seeds per grid point (experiment default)")
    option("--grid", type=_comma_list(float),
           help="comma-separated grid overriding the experiment default")
    return parser, commands


def _apply_config(path: Path, command: str, options: dict) -> None:
    """Make each config-file value the default of its option, read by the flag's type.

    A file that is not JSON, or not a JSON object, raises ValueError as `path: reason`.
    """
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    for key, value in doc.items():
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of {command!r}")
        cast = options[key].type or str
        try:
            if isinstance(value, (bool, list, dict)):  # no flag text reads as one
                raise ValueError
            if value is not None:
                options[key].default = cast(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid {cast.__name__} value "
                             f"{json.dumps(value)}") from None


def _out_dir(args: argparse.Namespace) -> Path:
    args.output_dir.mkdir(parents=True, exist_ok=True)
    return args.output_dir


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_preprocess(args: argparse.Namespace) -> int:
    # Checked before reading: an input with no records never reaches the per-record checks.
    data_io.check_delta_t(args.delta_t)
    data_io.check_min_len(args.min_len)
    data_io.check_utc_offset(args.utc_offset)
    table = text_embed.load_keyword_vectors(args.embeddings)
    raw = list(data_io.read_raw_records(args.input))
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
                t_day=data_io.to_time_of_day(t_abs, args.utc_offset),
                loc=np.array([lon, lat]),
                embedding=embedding,
                raw_text=text,
            )
        )

    traces = []
    dropped_short = 0
    for user_id in sorted(by_user):
        records = sorted(by_user[user_id], key=lambda r: r.t_abs)
        result = data_io.segment_history(records, delta_t=args.delta_t, min_len=args.min_len)
        traces.extend(result.traces)
        dropped_short += result.n_dropped_records

    out = _out_dir(args)
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
            "input": str(args.input),
            "embeddings": args.embeddings,
            "delta_t": args.delta_t,
            "min_len": args.min_len,
            "utc_offset": args.utc_offset,
        },
    }
    (out / "preprocess_report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {corpus_path} ({len(traces)} traces)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    corpus = data_io.read_columns(args.corpus)
    config = EmissionConfig.preset(args.preset, sigma_t_floor=args.sigma_t_floor,
                                   var_floor=args.var_floor)
    stop = StopCriteria(rel_tol=args.rel_tol, max_iters=args.max_iters)
    try:
        model, history = baum_welch(corpus, args.k, config, init=KMeansInit(seed=args.seed),
                                    stop=stop)
    except EmptyCorpusError as exc:
        raise ValueError(f"{args.corpus}: {exc}") from None

    out = _out_dir(args)
    model_path = out / "model.json"
    save_model(model, model_path)
    _write_csv(
        out / "likelihood.csv",
        ["iteration", "loglik", "seconds"],
        [(i, f"{h.loglik!r}", f"{h.seconds:.6f}") for i, h in enumerate(history)],
    )
    print(f"wrote {model_path} (K={args.k}, {len(history)} EM iterations, "
          f"final loglik {history[-1].loglik:.4f})")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    table = text_embed.load_keyword_vectors(args.embeddings)
    if table.dim != model.embedding_dim:
        raise ValueError(
            f"keyword vectors have dim {table.dim} but the model expects "
            f"{model.embedding_dim}"
        )
    rows = []
    for j, state in enumerate(model.states):
        direction, kappa = text_direction(state, model.config)
        keywords = "" if direction is None else " ".join(text_embed.nearest_keywords(
            direction, table, min(args.k_keywords, len(table.vocabulary))
        ))
        order = np.argsort(-model.trans[j], kind="stable")[:5]
        transitions = "|".join(f"{int(z)}:{model.trans[j, z]:.6f}" for z in order)
        rows.append(
            (
                j,
                f"{float(state.mu_l[0])!r}",
                f"{float(state.mu_l[1])!r}",
                f"{float(state.mu_t)!r}",
                f"{float(state.sigma_t)!r}",
                "" if kappa is None else f"{kappa!r}",
                keywords,
                transitions,
            )
        )

    path = _out_dir(args) / "summary.csv"
    _write_csv(
        path,
        ["state", "mean_lon", "mean_lat", "mean_time_s", "sigma_t_s", "kappa",
         "top_keywords", "top_transitions"],
        rows,
    )
    print(f"wrote {path} ({model.n_states} states)")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    test = data_io.read_corpus(args.corpus)
    check_embedding_dims(test, model.embedding_dim)
    usable = [t for t in test if len(t) >= 2]
    if not usable:
        raise ValueError(f"{args.corpus}: test corpus has no traces of length >= 2")
    dataset = args.corpus.stem if args.dataset is None else args.dataset
    index = data_io.RecordIndex.from_traces(usable)
    pools = data_io.build_pools(usable, index, args.dist_thresh, args.time_thresh,
                                args.pool_size, args.seed)
    accuracy = data_io.evaluate_prediction(model, usable, pools, args.k_list)

    out = _out_dir(args)
    path = out / "accuracy.csv"
    _write_csv(
        path,
        ["dataset", "K", "accuracy", "n_test", "pool_size", "seed"],
        [(dataset, k, f"{accuracy[k]!r}", len(usable), args.pool_size, args.seed)
         for k in args.k_list],
    )
    report = {
        "dataset": dataset,
        "n_test_traces": len(usable),
        "n_skipped_short_traces": len(test) - len(usable),
        "n_insufficient_pools": sum(p.insufficient for p in pools),
        "config": {
            "dist_thresh": args.dist_thresh,
            "time_thresh": args.time_thresh,
            "pool_size": args.pool_size,
            "k_list": args.k_list,
            "seed": args.seed,
        },
    }
    (out / "predict_report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}: " + ", ".join(f"acc@{k}={accuracy[k]:.4f}" for k in args.k_list))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    estimation = args.experiment in synth.ESTIMATION_GRIDS
    ignored = synth.ESTIMATION_GRIDS[args.experiment][0] if estimation else "n_seeds"
    kwargs = {"seed": args.seed}
    for key in ("p", "kappa", "n", "n_seeds"):
        value = getattr(args, key)
        if value is not None and key == ignored:
            print(f"note: --{key.replace('_', '-')} does not apply to {args.experiment}; ignored",
                  file=sys.stderr)
        elif value is not None:
            kwargs[key] = value
    if estimation:
        rows = synth.estimation_error(args.experiment, grid=args.grid, **kwargs)
    elif args.grid is not None:
        raise ValueError("newton_convergence takes no --grid")
    else:
        rows = synth.newton_convergence(**kwargs)
    out = _out_dir(args)
    path = out / f"{args.experiment}.csv"
    _write_csv(path, ["x", "metric", "value"], [(x, m, f"{v!r}") for x, m, v in rows])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args.config, args.command, commands[args.command])
            args = parser.parse_args(argv)
        missing = [dest for dest, value in vars(args).items() if value is _REQUIRED]
        if missing:
            raise SystemExit(f"missing required option --{missing[0].replace('_', '-')}")
        if getattr(args, "seed", 0) < 0:  # checked before any input is read
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        command = {"preprocess": cmd_preprocess, "train": cmd_train, "summarize": cmd_summarize,
                   "predict": cmd_predict, "synth": cmd_synth}[args.command]
        return command(args)
    except (OSError, ValueError, KeyError, NonFiniteLikelihoodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
