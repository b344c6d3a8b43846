"""Independent references for checking the program's outputs, run as a child process.

    python perfbench/oracle.py predict --inputs DIR
    python perfbench/oracle.py train --inputs DIR --model OUT/model.json

The emission densities, the scaled forward recursion and the
candidate-pool protocol are re-derived here from the model JSON document
and the corpus NDJSON, without calling into shmm, so a fast path that
changes results in the program does not change the reference with it.
The one exception is the train check that model.json loads through the
program's own `load_model`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import gammaln, ive

import workloads

EARTH_RADIUS_M = 6_371_000.0
SECONDS_PER_DAY = 86_400.0
_LOG_2PI = math.log(2.0 * math.pi)


def read_corpus_arrays(path) -> list:
    """Per trace (t_day (L,), loc (L, 2), embedding (L, p)) arrays from corpus NDJSON."""
    arrays = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                recs = json.loads(line)["records"]
                arrays.append((np.array([r["t_day"] for r in recs]),
                               np.array([[r["lon"], r["lat"]] for r in recs]),
                               np.array([r["embedding"] for r in recs])))
    return arrays


def _log_vmf_norm(p: int, kappa: float) -> float:
    if kappa == 0.0:
        return -(math.log(2.0) + 0.5 * p * math.log(math.pi) - float(gammaln(0.5 * p)))
    v = 0.5 * p - 1.0
    log_iv = math.log(float(ive(v, kappa))) + kappa
    return v * math.log(kappa) - 0.5 * p * _LOG_2PI - log_iv


def log_emissions(doc: dict, times, locs, embeds) -> np.ndarray:
    """(N, K) log emission densities under a model document."""
    cfg = doc["config"]
    p = int(doc["embedding_dim"])
    cols = []
    for s in doc["states"]:
        out = np.zeros(len(times))
        if cfg["use_time"]:
            z = (times - s["mu_t"]) / s["sigma_t"]
            out += -0.5 * z * z - math.log(s["sigma_t"]) - 0.5 * _LOG_2PI
        if cfg["use_location"]:
            cov = np.array(s["cov_l"])
            diff = locs - np.array(s["mu_l"])
            quad = np.einsum("na,ab,nb->n", diff, np.linalg.inv(cov), diff)
            out += -_LOG_2PI - 0.5 * math.log(np.linalg.det(cov)) - 0.5 * quad
        if cfg["text_model"] == "vmf":
            kappa = s["text"]["kappa"]
            out += _log_vmf_norm(p, kappa) + kappa * (embeds @ np.array(s["text"]["mu"]))
        elif cfg["text_model"] == "gaussian":
            mean, var = np.array(s["text_mean"]), np.array(s["text_var"])
            out += -0.5 * (((embeds - mean) ** 2) / var + np.log(var) + _LOG_2PI).sum(axis=1)
        cols.append(out)
    return np.stack(cols, axis=1)


def _forward(pi, trans, log_b):
    """Scaled forward pass over a (B, L, K) block: (loglik (B,), log alpha_last (B, K))."""
    shift = log_b.max(axis=2)
    b = np.exp(log_b - shift[:, :, None])
    alpha = pi[None, :] * b[:, 0]
    c = alpha.sum(axis=1)
    alpha /= c[:, None]
    loglik = np.log(c) + shift[:, 0]
    for t in range(1, log_b.shape[1]):
        alpha = (alpha @ trans) * b[:, t]
        c = alpha.sum(axis=1)
        alpha /= c[:, None]
        loglik += np.log(c) + shift[:, t]
    with np.errstate(divide="ignore"):
        return loglik, np.log(alpha) + loglik[:, None]


def _stacked(arrays):
    """Concatenated record arrays plus each trace's row offset."""
    offsets = np.cumsum([0] + [len(a[0]) for a in arrays])
    return offsets, [np.concatenate([a[j] for a in arrays]) for j in range(3)]


def _forward_groups(doc: dict, log_b_all, offsets, lengths):
    """Run the forward pass per length group; yields (trace indices, loglik, log alpha_last)."""
    pi, trans = np.array(doc["pi"]), np.array(doc["trans"])
    groups: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        groups.setdefault(int(length), []).append(i)
    for length, idx in groups.items():
        rows = np.array(offsets)[idx][:, None] + np.arange(length)[None, :]
        loglik, log_alpha = _forward(pi, trans, log_b_all[rows])
        yield idx, loglik, log_alpha


def corpus_loglik(doc: dict, arrays) -> float:
    """Total log-likelihood of the traces (read_corpus_arrays tuples) under a model."""
    offsets, stacked = _stacked(arrays)
    log_b_all = log_emissions(doc, *stacked)
    lengths = np.diff(offsets)
    return float(sum(ll.sum() for _, ll, _ in _forward_groups(doc, log_b_all, offsets, lengths)))


# ---------------------------------------------------------------------------
# next-record accuracy under the pool protocol


def _haversine(lon1, lat1, lon2, lat2):
    lon1, lat1, lon2, lat2 = map(np.radians, (lon1, lat1, lon2, lat2))
    h = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def prediction_reference(doc: dict, arrays, dist_thresh: float, time_thresh: float,
                         pool_size: int, seed: int, k_list) -> dict:
    """n_test, insufficient pools and accuracy@K for the predict protocol.

    Pools: negatives are the index records within dist_thresh meters and
    time_thresh seconds of circular time of day of the truth (the truth
    itself excluded, index order), sampled with default_rng(seed ^ i);
    the truth goes to a seeded slot.  Ranking is by the one-step-ahead
    score, descending, ties in pool order.
    """
    arrays = [a for a in arrays if len(a[0]) >= 2]
    offsets, (t_all, loc_all, emb_all) = _stacked(arrays)
    n_test = len(arrays)

    pools, truth_pos, insufficient = [], [], 0
    for i in range(n_test):
        truth = int(offsets[i + 1] - 1)
        dist = _haversine(loc_all[:, 0], loc_all[:, 1], loc_all[truth, 0], loc_all[truth, 1])
        dt = np.abs(t_all - t_all[truth]) % SECONDS_PER_DAY
        dt = np.minimum(dt, SECONDS_PER_DAY - dt)
        near = np.flatnonzero((dist <= dist_thresh) & (dt <= time_thresh))
        near = near[near != truth]
        rng = np.random.default_rng(seed ^ i)
        if len(near) >= pool_size - 1:
            near = near[rng.choice(len(near), size=pool_size - 1, replace=False)]
        else:
            insufficient += 1
        pos = int(rng.integers(0, len(near) + 1))
        pools.append(np.insert(near, pos, truth))
        truth_pos.append(pos)

    trans = np.array(doc["trans"])
    log_b_all = log_emissions(doc, t_all, loc_all, emb_all)
    ranks = np.empty(n_test, dtype=int)
    prefix_lengths = np.diff(offsets) - 1
    for idx, _, log_alpha in _forward_groups(doc, log_b_all, offsets[:-1], prefix_lengths):
        for row, i in enumerate(idx):
            m = log_alpha[row].max()
            pred = np.log(np.exp(log_alpha[row] - m) @ trans) + m
            cand = log_b_all[pools[i]] + pred
            cm = cand.max(axis=1, keepdims=True)
            scores = np.log(np.exp(cand - cm).sum(axis=1)) + cm[:, 0]
            t = truth_pos[i]
            ranks[i] = int(np.sum(scores > scores[t]) + np.sum(scores[:t] == scores[t]))
    accuracy = {int(k): float(np.mean(ranks < k)) for k in k_list}
    return {"n_test": n_test, "n_insufficient_pools": insufficient, "accuracy": accuracy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("train", "predict"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--model", type=Path, help="train: the model.json to check")
    args = parser.parse_args(argv)

    arrays = read_corpus_arrays(args.inputs / workloads.CORPUS_FILE)
    if args.command == "predict":
        doc = json.loads((args.inputs / workloads.MODEL_FILE).read_text())
        opts = dict(zip(workloads.PREDICT_ARGS[::2], workloads.PREDICT_ARGS[1::2]))
        out = prediction_reference(doc, arrays, float(opts["--dist-thresh"]),
                                   float(opts["--time-thresh"]), int(opts["--pool-size"]),
                                   int(opts["--seed"]), workloads.K_LIST)
    else:
        from shmm.hmm_core import load_model

        out = {}
        try:
            out["n_states"] = load_model(args.model).n_states
        except (ValueError, KeyError, TypeError) as exc:
            out["load_error"] = f"{type(exc).__name__}: {exc}"
        else:
            out["saved_loglik"] = corpus_loglik(json.loads(args.model.read_text()), arrays)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
