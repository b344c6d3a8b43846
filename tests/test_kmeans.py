"""The bound-pruned k-means initialization against the full-pass reference.

`hmm_core._kmeans_locations` must return exactly the labels of the former
implementation kept in `_kmeans_reference`: same distances, same argmin
ties, same empty-cluster repair and bitwise the same centroids, although it
recomputes only the records whose bounds overlap.  The cases below aim at
the bounds: runs to the cap, coordinates far larger than their spread,
ties that appear late, a center jumping far, centers landing on each other
and repairs after the first iteration.
"""

import logging
import math
import re

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


def reference_centers(locs, k, seed, t):
    """The centers the reference assigns to in iteration t (from 0, t >= 1,
    while it has not converged): the means of its labels after t iterations."""
    return _cluster_means(locs, reference(locs, k, seed, t), k)


def sq_dists(locs, centers):
    return ((locs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def on_a_line(x):
    return np.stack([np.asarray(x, dtype=float), np.zeros(len(x))], axis=1)


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


def test_benchmark_shape_runs_to_the_cap(caplog):
    # this train-uniform-shaped input still changes labels at the cap
    locs = _uniform_locs(1)
    with caplog.at_level(logging.INFO, logger="shmm.hmm_core"):
        labels = assert_same_labels(locs, 30, seed=1)
    changed = np.count_nonzero(labels != reference(locs, 30, 1, N_ITER - 1))
    assert changed > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"k-means stopped unconverged at its cap of {N_ITER} iterations; "
        f"{changed} labels changed in the last one"
    ]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lattice", [False, True], ids=["scattered", "lattice"])
def test_projected_meters_with_a_sub_meter_spread(seed, lattice):
    # meters near 1e6-1e7 spread over less than a meter: the coordinates'
    # ulp is 1e-9 m, but each difference is exact to within its own ulp, so
    # the margin scales with the spread.  On a 1/64 m lattice many distances
    # tie exactly.
    rng = np.random.default_rng(seed)
    blobs = rng.uniform(0.0, 0.8, size=(6, 2))
    offsets = blobs[rng.integers(6, size=600)] + rng.normal(scale=0.04, size=(600, 2))
    offsets = np.clip(offsets, 0.0, 0.9)
    if lattice:
        offsets = np.round(offsets * 64) / 64
    locs = np.array([4_517_000.3, 9_132_000.7]) + offsets
    assert np.ptp(locs, axis=0).max() < 1.0
    labels = assert_same_labels(locs, 8, seed=seed)
    assert np.bincount(labels, minlength=8).min() > 0


def test_exact_tie_that_first_appears_after_iteration_0():
    # thirds on a line: no record is equidistant from two records, so no
    # seeding ties at iteration 0.  After two iterations record 6 lies at the
    # exact (rounded) midpoint of the two centers, and argmin moves it from
    # center 1 to center 0.  Bounds carried with their rounding and no
    # margin would keep it at 1.
    locs = on_a_line(np.array([26, 5, 19, 54, 33, 7, 23, 30, 48]) * (1 / 3))
    d2 = sq_dists(locs, locs)
    for i, row in enumerate(d2):
        others = np.delete(row, i)
        assert np.unique(others).size == others.size
    centers = reference_centers(locs, 2, 48, 2)
    assert sq_dists(locs[6:7], centers)[0, 0] == sq_dists(locs[6:7], centers)[0, 1]
    assert reference(locs, 2, 48, 2)[6] == 1
    assert assert_same_labels(locs, 2, seed=48)[6] == 0


def test_one_center_jumps_far_while_the_others_barely_move():
    # after the second iteration center 0 jumps about 2400 units while the
    # other four move less than 0.2: the lower bounds of the records of the
    # other centers must shrink by the jump, not by the runner-up's move
    locs = np.array([
        [300.125, 300.375], [299.75, 299.75], [1999.625, 0.125], [2000.5, -0.125],
        [-399.625, 199.5], [-399.5, 200.5], [-399.5, 199.75], [1999.75, -0.25],
        [300.0, 299.625], [2000.5, -0.375], [300.375, 299.5], [-400.0, 200.5],
        [300.375, 299.625], [1999.875, 0.5], [2000.5, 0.0], [-400.125, 199.5],
        [300.0, 300.375], [300.25, 299.625], [1999.5, -0.375],
    ])
    moves = np.hypot(*(reference_centers(locs, 5, 88, 2) - reference_centers(locs, 5, 88, 1)).T)
    assert moves[0] > 2000.0 and moves[1:].max() < 0.2
    assert_same_labels(locs, 5, seed=88)


# four distinct points on a line, five centers: the extra center alternates
# between landing on the center at -79/4 + 0.3 and the one at -203/4 + 0.3,
# so some cluster comes out empty in every iteration and the labels cycle
# until the cap
_CYCLING = on_a_line(np.array([-79, -79, -79, -203, -203, 73, -203, 165, 165]) / 4 + 0.3)


def test_centers_converging_onto_each_other():
    # center 4 lands within rounding of center 1, then of center 3, then of
    # 1 again: each time the records of the two centers have lower bounds
    # near 0, while every other distance is tens of units
    spread = np.ptp(_CYCLING[:, 0])
    for t, partner in [(60, 1), (61, 3), (62, 1)]:
        centers = reference_centers(_CYCLING, 5, 28, t)
        assert np.hypot(*(centers[4] - centers[partner])) < 1e-12 * spread
    assert_same_labels(_CYCLING, 5, seed=28)


def _repairs_in(locs, k, seed, t):
    """Whether the reference's iteration t leaves a cluster empty before
    its repair."""
    labels = sq_dists(locs, reference_centers(locs, k, seed, t)).argmin(axis=1)
    return np.bincount(labels, minlength=k).min() == 0


@pytest.mark.parametrize("locs, k, seed, t", [
    # a cluster squeezed out between two others in iteration 2
    (on_a_line([15.25, -2.0, -4.0, -2.25, 19.0, 24.0, 16.5, -2.5, 14.75, 23.25, 13.5, -2.0,
                -2.5, -2.5, -2.5, 15.5, -2.5, 29.0, -4.0, -2.0, 12.0, 19.75, -2.5, 10.0,
                25.75, -2.75, 25.75, -2.5, 15.75, -2.25, -2.0, -2.0, 13.0, -2.5]), 9, 60, 2),
    # the cycle above, in its 60th iteration
    (_CYCLING, 5, 28, 60),
], ids=["squeezed", "cycling"])
def test_empty_cluster_repair_in_a_late_iteration(locs, k, seed, t):
    assert _repairs_in(locs, k, seed, t)
    # and the labels still change after the repair iteration
    assert not np.array_equal(reference(locs, k, seed, t + 1), reference(locs, k, seed, t + 2))
    labels = assert_same_labels(locs, k, seed=seed)
    assert np.bincount(labels, minlength=k).min() > 0


@pytest.mark.parametrize("n_iter", [1, N_ITER])
def test_debug_line_counts_the_recomputed_rows(caplog, n_iter):
    locs = _uniform_locs(7)[:2000]
    with caplog.at_level(logging.DEBUG, logger="shmm.hmm_core"):
        _kmeans_locations(locs, 30, 0, n_iter)
    (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    match = re.fullmatch(r"k-means ran (\d+) iterations and recomputed (\d+) of (\d+) "
                         r"distance rows", line)
    iters, rows, total = map(int, match.groups())
    assert total == len(locs) * iters
    if n_iter == 1:
        assert iters == 1 and rows == total
    else:
        # the first iteration recomputes every row, later ones few of them
        assert iters > 10 and len(locs) < rows < total / 2
