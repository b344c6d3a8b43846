"""Per-cluster k-means, kept as the oracle for `hmm_core._kmeans_locations`.

This is the former `_kmeans_locations` of `shmm.hmm_core`, verbatim: an
(N, K, 2) distance temporary, the empty-cluster check run for every
cluster on every iteration, and one boolean mask per centroid.  The
vectorized version must return exactly its labels.
"""

from __future__ import annotations

import numpy as np


def kmeans_locations(locs: np.ndarray, k: int, seed: int, n_iter: int) -> np.ndarray:
    """Deterministic k-means (k-means++ seeding) on record locations."""
    n = locs.shape[0]
    if n < k:
        raise ValueError(f"cannot initialize {k} states from {n} records")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, 2))
    centers[0] = locs[rng.integers(n)]
    d2 = ((locs - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            centers[j] = locs[rng.choice(n, p=probs)]
        else:
            centers[j] = locs[rng.integers(n)]
        d2 = np.minimum(d2, ((locs - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(n_iter):
        dists = ((locs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        # keep every cluster populated: steal the records the assignment
        # explains worst
        own = dists[np.arange(n), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                candidates = np.where(np.bincount(new_labels, minlength=k)[new_labels] > 1)[0]
                if candidates.size == 0:
                    candidates = np.arange(n)
                steal = candidates[np.argmax(own[candidates])]
                new_labels[steal] = j
                own[steal] = 0.0
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for j in range(k):
            centers[j] = locs[labels == j].mean(axis=0)
    return labels
