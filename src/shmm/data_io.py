"""Trace ingestion, segmentation, splits, candidate pools and evaluation.

Raw input is newline-delimited JSON, one record per line with fields
user_id, timestamp (ISO-8601 or epoch seconds), lon, lat, text; files
ending in .gz are decompressed transparently.  Preprocessed corpora are
NDJSON too, one trace per line with embeddings attached.  A corpus reads
two ways, by the same record rules and with the same `path:line: reason`
errors: `read_corpus` keeps its records (`Trace`s of `SemanticRecord`s,
as prediction uses them), and `read_columns` keeps only their columns (a
`Corpus`, as training uses it), letting each line's records go.

Candidate pools follow the next-location evaluation protocol: the true
final record of a test trace is mixed with negatives sampled among
records that are close to it both spatially (great-circle distance) and
in time of day (circular difference).  `RecordIndex` keeps its records'
time-of-day order, sorted once when the index is built, so a pool query
binary-searches the circular window [t - time_thresh, t + time_thresh]
(wrapping at midnight, padded outward by a microsecond) and runs the
exact distance and time predicates on that window only, in index order;
the pools are the same as a scan of the whole index would give.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .hmm_core import ShmmModel, score_next
from .records import SECONDS_PER_DAY, Corpus, CorpusColumns, SemanticRecord, Trace

EARTH_RADIUS_M = 6_371_000.0

DEFAULT_DELTA_T = 6 * 3600.0
DEFAULT_MIN_TRACE_LEN = 2
DEFAULT_POOL_SIZE = 10

#: Seconds added to each side of a pool's time-of-day window.  Rounding in
#: `circular_tday_diff` is below 1e-10 s for times of day in [0, 86400), so
#: the padded window always holds every record the exact predicate accepts.
_WINDOW_PAD_S = 1e-6


def _open_text(path, mode="rt"):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_timestamp(value) -> float:
    """Epoch seconds from an ISO-8601 string or a numeric epoch value."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip().replace("Z", "+00:00")
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def check_utc_offset(utc_offset_s: float) -> None:
    if not math.isfinite(utc_offset_s):
        raise ValueError(f"utc_offset must be finite, got {utc_offset_s!r}")


def to_time_of_day(t_abs: float, utc_offset_s: float) -> float:
    check_utc_offset(utc_offset_s)
    return (t_abs + utc_offset_s) % SECONDS_PER_DAY


def _read_ndjson(path, parse):
    """Yield parse(doc) per non-blank NDJSON line; a bad line raises ValueError as path:line.

    A number too large for a float (a JSON integer literal of 400 digits)
    is a bad line too.
    """
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON") from exc
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield value


def _number(doc, name: str, parse=float) -> float:
    """doc[name] read by parse; a JSON boolean or a non-finite result raises ValueError."""
    value = doc[name]
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    value = parse(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _raw_record(doc):
    """A missing or null text is the empty message."""
    text = doc.get("text")
    return (
        str(doc["user_id"]),
        _number(doc, "timestamp", parse_timestamp),
        _number(doc, "lon"),
        _number(doc, "lat"),
        "" if text is None else str(text),
    )


def read_raw_records(path):
    """Yield (user_id, t_abs, lon, lat, text) per raw NDJSON record (gzip by extension)."""
    return _read_ndjson(path, _raw_record)


# ---------------------------------------------------------------------------
# segmentation and splitting


@dataclass
class SegmentationResult:
    traces: list
    n_dropped_records: int


def check_delta_t(delta_t: float) -> None:
    if not delta_t >= 0.0:  # also false for NaN
        raise ValueError(f"delta_t must be a number >= 0, got {delta_t!r}")


def check_min_len(min_len: int) -> None:
    if not min_len >= 1:
        raise ValueError(f"min_len must be >= 1, got {min_len!r}")


def segment_history(
    records: Sequence[SemanticRecord],
    delta_t: float = DEFAULT_DELTA_T,
    min_len: int = DEFAULT_MIN_TRACE_LEN,
) -> SegmentationResult:
    """Split a user's time-ordered records into dense traces.

    A new trace starts whenever the gap between consecutive records
    exceeds delta_t; traces shorter than min_len are discarded (their
    record count is reported so callers can account for every input
    record).  delta_t must be a number >= 0 and min_len at least 1.
    """
    check_delta_t(delta_t)
    check_min_len(min_len)
    for a, b in zip(records, records[1:]):
        if b.t_abs < a.t_abs:
            raise ValueError("records must be sorted by t_abs")
    traces: list[Trace] = []
    dropped = 0
    segment: list[SemanticRecord] = []
    for rec in records:
        if segment and rec.t_abs - segment[-1].t_abs > delta_t:
            if len(segment) >= min_len:
                traces.append(Trace(segment))
            else:
                dropped += len(segment)
            segment = []
        segment.append(rec)
    if segment:
        if len(segment) >= min_len:
            traces.append(Trace(segment))
        else:
            dropped += len(segment)
    return SegmentationResult(traces=traces, n_dropped_records=dropped)


def split_corpus(traces: Sequence[Trace], train_frac: float, seed: int):
    """Deterministic trace-level shuffle split; train gets floor(frac * n)."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac!r}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(traces))
    n_train = int(math.floor(train_frac * len(traces)))
    train = [traces[i] for i in perm[:n_train]]
    test = [traces[i] for i in perm[n_train:]]
    return train, test


# ---------------------------------------------------------------------------
# candidate pools


def haversine_m(loc_a: np.ndarray, loc_b: np.ndarray) -> np.ndarray:
    """Great-circle distance in meters between (lon, lat) degree pairs."""
    loc_a = np.asarray(loc_a, dtype=float)
    loc_b = np.asarray(loc_b, dtype=float)
    lon1, lat1 = np.radians(loc_a[..., 0]), np.radians(loc_a[..., 1])
    lon2, lat2 = np.radians(loc_b[..., 0]), np.radians(loc_b[..., 1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def circular_tday_diff(a, b) -> np.ndarray:
    """Time-of-day difference in seconds, wrapped to [0, 43200]."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % SECONDS_PER_DAY
    return np.minimum(d, SECONDS_PER_DAY - d)


@dataclass
class RecordIndex:
    """Flat record pool with stacked arrays for threshold queries.

    locs and t_days are a snapshot of the records' values; t_days must
    lie in [0, 86400).  tday_order, the stable argsort of t_days, and
    sorted_t_days are derived once, at construction.
    """

    records: list
    locs: np.ndarray
    t_days: np.ndarray
    tday_order: np.ndarray = field(init=False, repr=False)
    sorted_t_days: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.t_days = np.asarray(self.t_days, dtype=float)
        if not np.all((self.t_days >= 0.0) & (self.t_days < SECONDS_PER_DAY)):
            raise ValueError("index t_days must lie in [0, 86400)")
        self.tday_order = np.argsort(self.t_days, kind="stable")
        self.sorted_t_days = self.t_days[self.tday_order]

    @classmethod
    def build(cls, records: Sequence[SemanticRecord]) -> "RecordIndex":
        records = list(records)
        return cls(
            records=records,
            locs=np.array([r.loc for r in records], dtype=float).reshape(-1, 2),
            t_days=np.array([r.t_day for r in records], dtype=float),
        )

    @classmethod
    def from_traces(cls, traces: Sequence[Trace]) -> "RecordIndex":
        return cls.build([r for tr in traces for r in tr])

    def _time_window(self, t_day: float, half_width: float) -> np.ndarray:
        """Ascending indices of a superset of the records within half_width of t_day."""
        reach = half_width + _WINDOW_PAD_S
        if reach >= SECONDS_PER_DAY / 2.0:
            return np.arange(len(self.t_days))
        lo, hi = t_day - reach, t_day + reach
        if lo < 0.0:
            spans = ((lo + SECONDS_PER_DAY, SECONDS_PER_DAY), (0.0, hi))
        elif hi >= SECONDS_PER_DAY:
            spans = ((lo, SECONDS_PER_DAY), (0.0, hi - SECONDS_PER_DAY))
        else:
            spans = ((lo, hi),)
        keys = self.sorted_t_days
        window = np.concatenate([
            self.tday_order[np.searchsorted(keys, a, "left"):np.searchsorted(keys, b, "right")]
            for a, b in spans
        ])
        return np.sort(window)


@dataclass
class CandidatePool:
    """The true next record mixed with spatio-temporally close negatives."""

    truth_index: int
    candidates: list
    insufficient: bool = False


def _check_pool_params(dist_thresh: float, time_thresh: float, pool_size: int) -> None:
    for name, value in (("dist_thresh", dist_thresh), ("time_thresh", time_thresh)):
        if not value >= 0.0:  # also false for NaN
            raise ValueError(f"{name} must be a number >= 0, got {value!r}")
    if pool_size < 2:
        raise ValueError(f"pool_size must be >= 2, got {pool_size!r}")


def _check_test_traces(test: Sequence[Trace]) -> None:
    """Raise ValueError naming the first test trace with fewer than 2 records."""
    for i, trace in enumerate(test):
        if len(trace) < 2:
            raise ValueError(f"trace {i}: test trace must have at least 2 records")


def build_candidate_pool(
    test_trace: Trace,
    all_records: RecordIndex,
    dist_thresh: float,
    time_thresh: float,
    pool_size: int = DEFAULT_POOL_SIZE,
    seed: int = 0,
) -> CandidatePool:
    """Assemble a ranking pool for the final record of a test trace.

    Negatives are sampled uniformly (seeded) among records within
    dist_thresh meters great-circle distance of the truth and within
    time_thresh seconds circular time-of-day difference (both thresholds
    closed); the truth itself is excluded from the negatives and placed
    at a seeded random position.  When fewer than pool_size - 1 records
    qualify the pool is emitted smaller with insufficient=True.  Only the
    index's time-of-day window around the truth is searched.  A negative
    or NaN threshold, or pool_size < 2, raises ValueError.
    """
    _check_pool_params(dist_thresh, time_thresh, pool_size)
    if len(test_trace) < 2:
        raise ValueError("test trace must have at least 2 records")
    truth = test_trace[-1]
    window = all_records._time_window(truth.t_day, time_thresh)
    # np.take gathers rows much faster than fancy indexing does.
    dists = haversine_m(np.take(all_records.locs, window, axis=0), truth.loc)
    tdiffs = circular_tday_diff(all_records.t_days[window], truth.t_day)
    qualify = (dists <= dist_thresh) & (tdiffs <= time_thresh)
    near = [i for i in window[qualify].tolist() if all_records.records[i] is not truth]

    rng = np.random.default_rng(seed)
    n_negatives = pool_size - 1
    insufficient = len(near) < n_negatives
    if not insufficient:
        near = [near[i] for i in rng.choice(len(near), size=n_negatives, replace=False)]
    negatives = [all_records.records[i] for i in near]
    truth_pos = int(rng.integers(0, len(negatives) + 1))
    pool = negatives[:truth_pos] + [truth] + negatives[truth_pos:]
    return CandidatePool(truth_index=truth_pos, candidates=pool, insufficient=insufficient)


def build_pools(
    test: Sequence[Trace],
    all_records: RecordIndex,
    dist_thresh: float,
    time_thresh: float,
    pool_size: int = DEFAULT_POOL_SIZE,
    seed: int = 0,
) -> list[CandidatePool]:
    """One pool per test trace, with a per-trace derived seed (seed ^ index).

    Every trace is checked before any pool is built; a trace shorter than 2
    raises ValueError naming its position.
    """
    # build_candidate_pool checks each call; this is for an empty test list.
    _check_pool_params(dist_thresh, time_thresh, pool_size)
    _check_test_traces(test)
    return [
        build_candidate_pool(
            trace, all_records, dist_thresh, time_thresh, pool_size, seed=seed ^ i
        )
        for i, trace in enumerate(test)
    ]


def evaluate_prediction(
    model: ShmmModel,
    test: Sequence[Trace],
    pools: Sequence[CandidatePool],
    k_list: Sequence[int],
    score_fn=None,
) -> dict[int, float]:
    """accuracy@K of next-record ranking over aligned (trace, pool) pairs.

    Every cutoff K must be >= 1, and every test trace must hold at least 2
    records (a shorter one raises ValueError naming its position).
    score_fn defaults to hmm_core.score_next and exists so tests can
    substitute reference scorers.
    """
    for k in k_list:
        if k < 1:
            raise ValueError(f"accuracy cutoff K must be >= 1, got {k!r}")
    if len(test) != len(pools):
        raise ValueError("pools must align one-to-one with test traces")
    if len(test) == 0:
        raise ValueError("nothing to evaluate")
    _check_test_traces(test)
    if score_fn is None:
        score_fn = score_next
    ranks = []
    for trace, pool in zip(test, pools):
        prefix = Trace(trace.records[:-1])
        ranked = score_fn(model, prefix, pool.candidates, len(pool.candidates))
        order = [idx for idx, _ in ranked]
        ranks.append(order.index(pool.truth_index))
    ranks = np.asarray(ranks)
    return {int(k): float(np.mean(ranks < k)) for k in k_list}


# ---------------------------------------------------------------------------
# corpus persistence


def write_corpus(traces: Sequence[Trace], path) -> None:
    """One trace per NDJSON line, embeddings attached, under its records' one `user_id`.

    A corpus line has one `user_id`, so a trace whose records mix user_ids
    raises ValueError naming it before the file is opened.
    """
    for i, trace in enumerate(traces):
        users = {r.user_id for r in trace}
        if len(users) > 1:
            raise ValueError(f"trace {i}: records mix user_ids {sorted(users)}")
    with _open_text(path, "wt") as fh:
        for trace in traces:
            doc = {
                "user_id": trace[0].user_id,
                "records": [
                    {
                        "t_abs": r.t_abs,
                        "t_day": r.t_day,
                        "lon": float(r.loc[0]),
                        "lat": float(r.loc[1]),
                        "embedding": r.embedding.tolist(),
                        "text": r.raw_text,
                    }
                    for r in trace
                ],
            }
            fh.write(json.dumps(doc) + "\n")


def _embedding(doc) -> np.ndarray:
    """doc["embedding"] as a float array; a JSON boolean coordinate raises ValueError."""
    value = doc["embedding"]
    if isinstance(value, list) and bool in map(type, value):
        raise ValueError("embedding coordinates must be numbers, got a JSON boolean")
    return np.array(value, dtype=float)


def _trace_from_doc(doc) -> Trace:
    """Numbers, user_id and text are read as `_raw_record` reads them; a null text stays null."""
    user_id = str(doc["user_id"])
    return Trace([
        SemanticRecord(
            user_id=user_id,
            t_abs=_number(r, "t_abs"),
            t_day=_number(r, "t_day"),
            loc=np.array([_number(r, "lon"), _number(r, "lat")]),
            embedding=_embedding(r),
            raw_text=None if r.get("text") is None else str(r["text"]),
        )
        for r in doc["records"]
    ])


def read_corpus(path, into=None) -> list[Trace]:
    """Read a corpus written by `write_corpus`; a bad line raises ValueError as path:line.

    Each line's `Trace` is appended to into as soon as it is read, and
    into is returned: a new list by default.  An error the append raises
    is located at the line like any other.
    """
    traces = [] if into is None else into
    for _ in _read_ndjson(path, lambda doc: traces.append(_trace_from_doc(doc))):
        pass
    return traces


def read_columns(path) -> Corpus:
    """Read a corpus written by `write_corpus` into a columnar `Corpus`, keeping no records.

    Each line is read by `read_corpus`, with its checks and its `path:line:
    reason` errors, and only its trace's columns are kept: no record lives
    past its line.  A line whose embedding dimension differs from the first
    line's raises ValueError as `path:line: trace embedding dim 5 != corpus 4`.
    """
    return read_corpus(path, into=CorpusColumns()).corpus()
