"""Message embeddings from pretrained keyword vectors.

Keyword vectors are trained externally (any word2vec-style tool) and
ingested from a text file: one token followed by its p coordinates per
line, with an optional "<vocab_size> <dim>" header line auto-detected.
A message embedding is the TF-IDF-weighted average of its known keyword
vectors, l2-normalized onto the unit sphere; messages containing no known
keyword cannot be embedded and are dropped by callers.
"""

from __future__ import annotations

import gzip
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9]+")


class NoKnownTokensError(ValueError):
    """The message shares no token with the keyword vocabulary."""


def tokenize(text: str) -> list[str]:
    """Lowercase, drop URLs and @-mentions, split on non-alphanumerics.

    Hashtag bodies survive ("#giants" -> "giants"); mentions are removed
    entirely rather than contributing their handle as a token.
    """
    text = _URL_RE.sub(" ", text.lower())
    text = _MENTION_RE.sub(" ", text)
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class KeywordTable:
    """Immutable keyword vocabulary with embeddings and idf weights."""

    vocabulary: tuple
    vectors: np.ndarray
    idf: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        idf = np.asarray(self.idf, dtype=float)
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "idf", idf)
        n = len(self.vocabulary)
        if len(set(self.vocabulary)) != n:
            raise ValueError("vocabulary tokens must be unique")
        if vectors.ndim != 2 or vectors.shape[0] != n:
            raise ValueError("vectors must be a (|V|, p) matrix")
        if idf.shape != (n,) or np.any(idf < 0.0):
            raise ValueError("idf must be a non-negative |V|-vector")
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(self.vocabulary)})

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def token_index(self, token: str) -> int | None:
        return self._index.get(token)

    def with_idf(self, idf: np.ndarray) -> "KeywordTable":
        return KeywordTable(vocabulary=self.vocabulary, vectors=self.vectors, idf=idf)


def load_keyword_vectors(path) -> KeywordTable:
    """Parse a keyword-vector file into a KeywordTable (idf set to ones).

    Format: UTF-8 text, one "token x1 ... xp" record per line; an optional
    first line holding exactly two integers is treated as a
    "<vocab_size> <dim>" header and skipped.  Every vector has the first
    vector's p >= 1 finite coordinates, and every token is new; a line
    that breaks either rule raises ValueError as `path:line: reason`.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    first_line: dict[str, int] = {}  # token -> its line, in file order
    rows: list[np.ndarray] = []
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            try:
                row = np.array([float(x) for x in parts[1:]], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed vector entry") from exc
            if not row.size:
                raise ValueError(f"{path}:{lineno}: {parts[0]!r} has no coordinates")
            if rows and row.size != rows[0].size:
                raise ValueError(f"{path}:{lineno}: {parts[0]!r} has {row.size} coordinates, "
                                 f"the first vector {rows[0].size}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{lineno}: {parts[0]!r} has a non-finite coordinate")
            if parts[0] in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate token {parts[0]!r} "
                                 f"(first on line {first_line[parts[0]]})")
            rows.append(row)
            first_line[parts[0]] = lineno
    if not first_line:
        raise ValueError(f"{path}: no keyword vectors found")
    return KeywordTable(vocabulary=list(first_line), vectors=np.vstack(rows),
                        idf=np.ones(len(rows)))


def compute_idf(corpus: Sequence[Sequence[str]], vocabulary: Sequence[str]) -> np.ndarray:
    """Smoothed inverse document frequencies over the vocabulary.

    idf(w) = ln((1 + D) / (1 + df(w))) + 1 with D the number of messages
    and df(w) the number of messages containing w; tokens absent from the
    corpus get the full df = 0 weight.
    """
    if len(corpus) == 0:
        raise ValueError("corpus must contain at least one message")
    df = Counter()
    for tokens in corpus:
        df.update(set(tokens))
    d = len(corpus)
    return np.array(
        [np.log((1.0 + d) / (1.0 + df.get(tok, 0))) + 1.0 for tok in vocabulary], dtype=float
    )


def embed_message(tokens: Sequence[str], table: KeywordTable) -> np.ndarray:
    """Unit-norm message embedding: normalized sum of tf * idf * vec(w).

    Raises NoKnownTokensError when no token is in the vocabulary or the
    weighted sum has no direction (norm below 1e-12).
    """
    counts = Counter(tokens)
    idx = []
    weights = []
    for token, tf in counts.items():
        j = table.token_index(token)
        if j is not None:
            idx.append(j)
            weights.append(tf * table.idf[j])
    if not idx:
        raise NoKnownTokensError("message has no token in the keyword vocabulary")
    v = np.asarray(weights) @ table.vectors[idx]
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise NoKnownTokensError("weighted keyword vectors cancel; no usable direction")
    return v / norm


def nearest_keywords(direction: np.ndarray, table: KeywordTable, k: int) -> list[str]:
    """The k vocabulary tokens whose vectors are closest in cosine.

    Ties break lexicographically.  k must lie in [0, vocabulary size].
    """
    if k < 0:
        raise ValueError(f"keyword count k must be >= 0, got {k}")
    if k > len(table.vocabulary):
        raise ValueError(f"k={k} exceeds vocabulary size {len(table.vocabulary)}")
    direction = np.asarray(direction, dtype=float)
    norms = np.linalg.norm(table.vectors, axis=1)
    sims = (table.vectors @ direction) / (norms * float(np.linalg.norm(direction)) + 1e-300)
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], table.vocabulary[i]))
    return [table.vocabulary[i] for i in order[:k]]
