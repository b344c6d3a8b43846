"""Full-scan candidate pools, kept as the oracle for the time-of-day window.

These are the former `build_candidate_pool` and `build_pools` of
`shmm.data_io`, verbatim: every query computes haversine and the circular
time difference over the whole index.  The indexed lookup in
`shmm.data_io` must return exactly their pools: the same candidate
objects in the same order and the same `truth_index` and `insufficient`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from shmm.data_io import (
    DEFAULT_POOL_SIZE,
    CandidatePool,
    RecordIndex,
    circular_tday_diff,
    haversine_m,
)
from shmm.records import Trace


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
    qualify the pool is emitted smaller with insufficient=True.
    """
    if len(test_trace) < 2:
        raise ValueError("test trace must have at least 2 records")
    truth = test_trace[-1]
    dists = haversine_m(all_records.locs, truth.loc)
    tdiffs = circular_tday_diff(all_records.t_days, truth.t_day)
    qualify = (dists <= dist_thresh) & (tdiffs <= time_thresh)
    candidates_idx = [
        i for i in np.flatnonzero(qualify) if all_records.records[i] is not truth
    ]

    rng = np.random.default_rng(seed)
    n_negatives = pool_size - 1
    insufficient = len(candidates_idx) < n_negatives
    if not insufficient:
        chosen = rng.choice(len(candidates_idx), size=n_negatives, replace=False)
        negatives = [all_records.records[candidates_idx[i]] for i in chosen]
    else:
        negatives = [all_records.records[i] for i in candidates_idx]
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
    """One pool per test trace, with a per-trace derived seed (seed ^ index)."""
    return [
        build_candidate_pool(
            trace, all_records, dist_thresh, time_thresh, pool_size, seed=seed ^ i
        )
        for i, trace in enumerate(test)
    ]
