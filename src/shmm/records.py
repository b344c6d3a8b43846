"""Core observation types: semantic records, traces and columnar corpora.

A semantic record is one (timestamp, location, text-embedding) observation
for a user; a trace is a time-ordered sequence of records for one user.  A
`Corpus` holds many traces as flat record columns, the form a fit reads.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SECONDS_PER_DAY = 86_400.0


@dataclass
class SemanticRecord:
    """One observation: absolute time, time-of-day, 2-D location, unit embedding.

    t_abs must be finite; t_day is in seconds since local midnight,
    [0, 86400).  loc is (lon, lat) in degrees by default (a dataset config
    may use projected meters instead).  embedding must be a vector (1-D) of
    unit norm within 1e-9.
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
        if self.loc.shape != (2,) or not all(map(math.isfinite, self.loc.tolist())):
            raise ValueError("loc must be a finite 2-vector")
        if self.embedding.ndim != 1:
            raise ValueError(f"embedding must be a vector, got shape {self.embedding.shape}")
        norm = math.hypot(*self.embedding.tolist())  # no overflow or warning at 1e200
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"embedding must be unit norm, got ||e|| = {norm!r}")


@dataclass
class Trace:
    """Time-ordered records of a single user: at least one record,
    non-decreasing t_abs, one embedding length.

    records is a tuple, so a validated trace cannot grow behind its checks.
    A trace holds only its records; `stack_records(trace)` gives its
    (times, locs, embeddings) columns.
    """

    records: tuple

    def __post_init__(self):
        self.records = tuple(self.records)
        if not self.records:
            raise ValueError("a trace needs at least one record")
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


def stack_records(records: Sequence[SemanticRecord]):
    """Column-stack record fields into (times, locs, embeddings) arrays."""
    times = np.array([r.t_day for r in records], dtype=float)
    locs = np.array([r.loc for r in records], dtype=float)
    embeds = np.array([r.embedding for r in records], dtype=float)
    return times, locs, embeds


class DimensionMismatchError(ValueError):
    """Trace/record dimensions do not match the model."""


def check_embedding_dims(corpus: Sequence[Trace], embedding_dim: int) -> None:
    """Raise DimensionMismatchError for the first trace of another embedding dim.

    The message names the trace by position, as in `trace 7: trace
    embedding dim 5 != model 4`.  Reads each trace's first record only: a
    `Trace` holds at least one record and one embedding length.
    """
    for i, trace in enumerate(corpus):
        dim = len(trace[0].embedding)
        if dim != embedding_dim:
            raise DimensionMismatchError(
                f"trace {i}: trace embedding dim {dim} != model {embedding_dim}")


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of an array."""
    view = values.view()
    view.flags.writeable = False
    return view


class CorpusColumns:
    """A `Corpus` being gathered one trace at a time.

    `append(trace)` keeps the trace's columns, not its records, and
    `corpus()` concatenates them once.  The first trace sets the embedding
    dimension; a trace of another raises DimensionMismatchError as `trace
    embedding dim 5 != corpus 4`.
    """

    def __init__(self):
        self._blocks = []
        self.dim = None

    def append(self, trace: Trace) -> None:
        if not isinstance(trace, Trace):
            raise TypeError(f"a corpus holds Traces, got {type(trace).__name__}")
        t_day, locs, embeds = stack_records(trace)
        if self.dim is None:
            self.dim = embeds.shape[1]
        elif embeds.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"trace embedding dim {embeds.shape[1]} != corpus {self.dim}")
        self._blocks.append((trace[0].user_id, np.array([r.t_abs for r in trace], dtype=float),
                             t_day, locs, embeds, [r.raw_text for r in trace]))

    def corpus(self) -> Corpus:
        """The gathered traces as one `Corpus`; the gathered blocks are let go."""
        corpus = Corpus.__new__(Corpus)
        corpus._take(self)
        return corpus


class Corpus(abc.Sequence):
    """Traces as flat, read-only record columns: the form a fit reads.

    t_abs and t_day (N,), locs (N, 2) and embeds (N, p) hold every record
    in corpus order, trace after trace; lengths[i] is the record count of
    trace i and user_ids[i] its user (its first record's), and texts[j] is
    record j's raw text (or None).  A corpus is built only from `Trace`s,
    so every value in it has passed the rules of `SemanticRecord` and
    `Trace`: by `Corpus(traces)`, or line by line by
    `data_io.read_columns`, which lets each line's records go once their
    columns are kept.

    A corpus is a sequence of traces: corpus[i] builds trace i's records,
    whose loc and embedding are read-only views of the columns' rows.
    """

    def __init__(self, traces: Sequence[Trace]):
        """The columns of the traces' records, stacked as the records are at the call.

        The first trace sets the embedding dimension; a trace of another
        raises DimensionMismatchError naming its position (see
        `check_embedding_dims`).
        """
        check_embedding_dims(traces, len(traces[0][0].embedding) if len(traces) else 0)
        columns = CorpusColumns()
        for trace in traces:
            columns.append(trace)
        self._take(columns)

    def _take(self, columns: CorpusColumns) -> None:
        """Concatenate what columns gathered into this corpus's columns, and let it go."""
        blocks, columns._blocks = columns._blocks, []
        user_ids, t_abs, t_day, locs, embeds, texts = zip(*blocks) if blocks else ((),) * 6
        self.t_abs = _read_only(np.concatenate([np.empty(0), *t_abs]))
        self.t_day = _read_only(np.concatenate([np.empty(0), *t_day]))
        self.locs = _read_only(np.concatenate([np.empty((0, 2)), *locs]))
        self.embeds = _read_only(np.concatenate([np.empty((0, columns.dim or 0)), *embeds]))
        self.lengths = _read_only(np.array([len(t) for t in t_abs], dtype=np.intp))
        self.user_ids = tuple(user_ids)
        self.texts = tuple(text for block in texts for text in block)
        self._starts = np.concatenate(([0], np.cumsum(self.lengths))).tolist()

    def __len__(self) -> int:
        return len(self.user_ids)

    def __getitem__(self, i) -> Trace:
        i = range(len(self))[operator.index(i)]
        user_id = self.user_ids[i]
        return Trace([
            SemanticRecord(user_id=user_id, t_abs=float(self.t_abs[j]),
                           t_day=float(self.t_day[j]), loc=self.locs[j],
                           embedding=self.embeds[j], raw_text=self.texts[j])
            for j in range(self._starts[i], self._starts[i + 1])
        ])
