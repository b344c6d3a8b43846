"""Core observation types: semantic records and traces.

A semantic record is one (timestamp, location, text-embedding) observation
for a user; a trace is a time-ordered sequence of records for one user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SECONDS_PER_DAY = 86_400.0


@dataclass
class SemanticRecord:
    """One observation: absolute time, time-of-day, 2-D location, unit embedding.

    t_abs must be finite; t_day is in seconds since local midnight,
    [0, 86400).  loc is (lon, lat) in degrees by default (a dataset config
    may use projected meters instead).  embedding must be unit norm within 1e-9.
    raw_text is optional and only carried along for reports.
    """

    user_id: str
    t_abs: float
    t_day: float
    loc: np.ndarray
    embedding: np.ndarray
    raw_text: str | None = None

    def __post_init__(self):
        self.loc = np.asarray(self.loc, dtype=float)
        self.embedding = np.asarray(self.embedding, dtype=float)
        if not math.isfinite(self.t_abs):
            raise ValueError(f"t_abs must be finite, got {self.t_abs!r}")
        if not 0.0 <= self.t_day < SECONDS_PER_DAY:
            raise ValueError(f"t_day must lie in [0, 86400), got {self.t_day!r}")
        if self.loc.shape != (2,) or not np.all(np.isfinite(self.loc)):
            raise ValueError("loc must be a finite 2-vector")
        norm = float(np.linalg.norm(self.embedding))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"embedding must be unit norm, got ||e|| = {norm!r}")


@dataclass
class Trace:
    """Time-ordered records of a single user: non-decreasing t_abs, one embedding length.

    records is a tuple, so a validated trace cannot grow behind its checks
    and its cached columns.
    """

    records: tuple = ()

    def __post_init__(self):
        self.records = tuple(self.records)
        for a, b in zip(self.records, self.records[1:]):
            if b.t_abs < a.t_abs:
                raise ValueError("trace records must be ordered by t_abs")
        lengths = {len(r.embedding) for r in self.records}
        if len(lengths) > 1:
            raise ValueError(f"records mix embedding lengths {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    @cached_property
    def times(self) -> np.ndarray:
        return np.array([r.t_day for r in self.records], dtype=float)

    @cached_property
    def locs(self) -> np.ndarray:
        return np.array([r.loc for r in self.records], dtype=float)

    @cached_property
    def embeddings(self) -> np.ndarray:
        return np.array([r.embedding for r in self.records], dtype=float)


def stack_records(records: Sequence[SemanticRecord]):
    """Column-stack record fields into (times, locs, embeddings) arrays."""
    times = np.array([r.t_day for r in records], dtype=float)
    locs = np.array([r.loc for r in records], dtype=float)
    embeds = np.array([r.embedding for r in records], dtype=float)
    return times, locs, embeds
