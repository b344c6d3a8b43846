"""The vectorized k-means initialization against the per-cluster reference.

`hmm_core._kmeans_locations` must return exactly the labels of the former
implementation kept in `_kmeans_reference`: same distances, same argmin
ties, same empty-cluster repair and bitwise the same centroids.
"""

import logging
import math

import numpy as np
import pytest

from _kmeans_reference import kmeans_locations as reference
from shmm.hmm_core import KMeansInit, _cluster_means, _kmeans_locations
from shmm.records import stack_records
from shmm.synth import planted_model, sample_corpus

N_ITER = KMeansInit().n_iter


def _uniform_locs(seed):
    """Record locations shaped like the train-uniform benchmark: K=30, 400 x 20."""
    model = planted_model(30, 30, seed)
    return np.concatenate([stack_records(t)[1] for t in sample_corpus(model, 400, 20, seed + 100)])


def _mixed_locs(seed):
    """Record locations shaped like train-mixed: K=10, 850 traces of
    1 + Geometric(1/12) quantile lengths capped at 200."""
    model = planted_model(10, 30, seed)
    u = (np.arange(850) + 0.5) / 850
    lengths = np.minimum(1 + np.ceil(np.log1p(-u) / math.log1p(-1.0 / 12)).astype(int), 200)
    return np.concatenate([
        stack_records(t)[1]
        for length in np.unique(lengths)
        for t in sample_corpus(model, int((lengths == length).sum()), int(length), seed + length)
    ])


def assert_same_labels(locs, k, seed=0, n_iter=N_ITER):
    got = _kmeans_locations(locs, k, seed, n_iter)
    expected = reference(locs, k, seed, n_iter)
    assert np.array_equal(got, expected)
    return got


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape, k", [(_uniform_locs, 30), (_mixed_locs, 10)],
                         ids=["train-uniform", "train-mixed"])
def test_matches_reference_on_benchmark_shapes(shape, k, seed):
    labels = assert_same_labels(shape(seed), k, seed=seed)
    assert np.bincount(labels, minlength=k).min() > 0


def test_duplicate_points_force_the_repair():
    # four distinct points, nine clusters: k-means++ runs out of positive
    # distance and repeats centers, so the first assignment leaves clusters
    # empty and the repair must fill them
    locs = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.3, 0.7]]), 5, axis=0)
    rng = np.random.default_rng(3)
    locs = locs[rng.permutation(len(locs))]
    for seed in range(5):
        labels = assert_same_labels(locs, 9, seed=seed)
        assert np.bincount(labels, minlength=9).min() > 0


def test_ties_on_a_grid():
    # points on a 0.1 grid, centers landing on grid points: many exact
    # distance ties, which argmin must break as the reference does
    xs, ys = np.meshgrid(np.arange(12) * 0.1, np.arange(9) * 0.1)
    locs = np.stack([xs.ravel(), ys.ravel()], axis=1) + 1e3
    for seed in range(5):
        assert_same_labels(locs, 7, seed=seed)


def test_n_equals_k():
    locs = np.random.default_rng(0).normal(size=(12, 2))
    labels = assert_same_labels(locs, 12)
    assert sorted(labels.tolist()) == list(range(12))


def test_all_points_identical():
    locs = np.full((40, 2), 0.25)
    labels = assert_same_labels(locs, 4)
    assert np.bincount(labels, minlength=4).min() > 0


def test_single_cluster():
    locs = np.random.default_rng(1).normal(size=(50, 2))
    assert not assert_same_labels(locs, 1).any()


@pytest.mark.parametrize("n_iter", [1, 2, 5])
def test_few_iterations(n_iter):
    assert_same_labels(_uniform_locs(7)[:2000], 30, n_iter=n_iter)


def test_stop_at_the_cap_is_logged(caplog):
    locs = _uniform_locs(7)[:2000]
    with caplog.at_level(logging.INFO, logger="shmm.hmm_core"):
        labels = assert_same_labels(locs, 30, n_iter=1)
    # the first iteration changes every label that is not the initial 0
    assert [r.getMessage() for r in caplog.records] == [
        "k-means stopped unconverged at its cap of 1 iterations; "
        f"{np.count_nonzero(labels)} labels changed in the last one"
    ]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="shmm.hmm_core"):
        assert_same_labels(locs, 30, n_iter=1000)
    assert not caplog.records


@pytest.mark.parametrize("seed", range(3))
def test_cluster_means_sum_in_record_order(seed):
    # magnitudes from 1e-3 to 1e16 make every sum depend on its order, so
    # any reordering within a cluster shows up in the low bits
    rng = np.random.default_rng(seed)
    n, k = 500, 6
    locs = rng.choice([-1.0, 1.0], size=(n, 2)) * 10.0 ** rng.integers(-3, 17, size=(n, 2))
    labels = rng.integers(k, size=n)
    expected = np.stack([locs[labels == j].mean(axis=0) for j in range(k)])
    assert np.array_equal(_cluster_means(locs, labels, k), expected)


def test_fewer_records_than_clusters_rejected():
    with pytest.raises(ValueError, match="cannot initialize 5 states from 4 records"):
        _kmeans_locations(np.zeros((4, 2)), 5, 0, N_ITER)


@pytest.mark.parametrize("n_iter", [0, -1])
def test_init_rejects_no_iterations(n_iter):
    with pytest.raises(ValueError, match="n_iter"):
        KMeansInit(n_iter=n_iter)
