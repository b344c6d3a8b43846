"""Tests for segmentation, splitting, candidate pools and evaluation."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from shmm.data_io import (
    RecordIndex,
    build_candidate_pool,
    build_pools,
    circular_tday_diff,
    evaluate_prediction,
    haversine_m,
    parse_timestamp,
    read_columns,
    read_corpus,
    segment_history,
    split_corpus,
    to_time_of_day,
    write_corpus,
)
from shmm.records import SemanticRecord, Trace, stack_records
from shmm.synth import planted_model, sample_corpus

import _pool_reference
from _helpers import assert_readers_agree


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def make_record(t_abs, t_day=None, loc=(0.0, 0.0), user="u", p=3):
    return SemanticRecord(
        user_id=user,
        t_abs=float(t_abs),
        t_day=float(t_abs % 86400 if t_day is None else t_day),
        loc=np.asarray(loc, dtype=float),
        embedding=unit(np.arange(1, p + 1)),
    )


HOUR = 3600.0


class TestSegmentHistory:
    def test_single_split_at_large_gap(self):
        # gaps 1h, 7h, 2h -> two traces of length 2
        records = [make_record(t) for t in np.cumsum([0, 1, 7, 2]) * HOUR]
        result = segment_history(records)
        assert [len(t) for t in result.traces] == [2, 2]
        assert result.n_dropped_records == 0

    def test_no_split_when_gaps_small(self):
        records = [make_record(t * HOUR) for t in range(8)]
        result = segment_history(records)
        assert [len(t) for t in result.traces] == [8]

    def test_short_segments_are_dropped_and_counted(self):
        records = [make_record(t) for t in [0.0, 10 * HOUR, 11 * HOUR, 30 * HOUR]]
        result = segment_history(records)
        assert [len(t) for t in result.traces] == [2]
        assert result.n_dropped_records == 2

    def test_planted_gaps_match_scan_oracle(self):
        rng = np.random.default_rng(0)
        gaps = rng.uniform(0.5, 12.0, size=999) * HOUR
        t_abs = np.concatenate([[0.0], np.cumsum(gaps)])
        records = [make_record(t) for t in t_abs]
        result = segment_history(records, delta_t=6 * HOUR, min_len=1)
        # oracle: boundaries exactly where the gap exceeds the threshold
        boundaries = np.flatnonzero(gaps > 6 * HOUR)
        expected_lengths = np.diff(np.concatenate([[0], boundaries + 1, [len(records)]]))
        assert [len(t) for t in result.traces] == list(expected_lengths)

    def test_conservation_invariant(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            gaps = rng.uniform(0.5, 14.0, size=200) * HOUR
            records = [make_record(t) for t in np.concatenate([[0.0], np.cumsum(gaps)])]
            result = segment_history(records, min_len=3)
            assert (
                sum(len(t) for t in result.traces) + result.n_dropped_records == len(records)
            )

    def test_unsorted_input_rejected(self):
        records = [make_record(100.0), make_record(0.0)]
        with pytest.raises(ValueError):
            segment_history(records)

    @pytest.mark.parametrize("delta_t", [math.nan, -1.0])
    def test_delta_t_that_would_switch_segmentation_off_is_rejected(self, delta_t):
        # a NaN gap threshold compares False with every gap: one trace, no split
        records = [make_record(t * 240 * HOUR) for t in range(4)]
        with pytest.raises(ValueError, match=f"^delta_t must be a number >= 0, got {delta_t}$"):
            segment_history(records, delta_t=delta_t, min_len=1)

    @pytest.mark.parametrize("min_len", [0, -5])
    def test_min_len_below_one_is_rejected(self, min_len):
        # a min_len below 1 keeps every segment, as min_len=1 does
        records = [make_record(t * HOUR) for t in range(3)]
        with pytest.raises(ValueError, match=f"^min_len must be >= 1, got {min_len}$"):
            segment_history(records, min_len=min_len)


class TestSplitCorpus:
    def _traces(self, n):
        return [Trace([make_record(0.0, user=f"u{i}"), make_record(10.0, user=f"u{i}")]) for i in range(n)]

    def test_seventy_thirty(self):
        train, test = split_corpus(self._traces(10), 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_same_seed_identical(self):
        traces = self._traces(20)
        a_train, a_test = split_corpus(traces, 0.7, seed=5)
        b_train, b_test = split_corpus(traces, 0.7, seed=5)
        assert [t[0].user_id for t in a_train] == [t[0].user_id for t in b_train]
        assert [t[0].user_id for t in a_test] == [t[0].user_id for t in b_test]

    def test_floor_rounding(self):
        train, test = split_corpus(self._traces(101), 0.5, seed=1)
        assert len(train) == 50 and len(test) == 51

    def test_partition_is_disjoint_and_exhaustive(self):
        traces = self._traces(30)
        train, test = split_corpus(traces, 0.4, seed=2)
        ids = sorted(t[0].user_id for t in train) + sorted(t[0].user_id for t in test)
        assert sorted(ids) == sorted(t[0].user_id for t in traces)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_corpus(self._traces(5), 1.0, seed=0)


class TestHaversine:
    def test_known_distance(self):
        # one degree of latitude is ~111.19 km on the sphere
        d = haversine_m(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(111_195.0, rel=1e-3)

    def test_zero_distance(self):
        assert haversine_m(np.array([10.0, 45.0]), np.array([10.0, 45.0])) == 0.0

    def test_circular_time_diff(self):
        assert circular_tday_diff(100.0, 86300.0) == pytest.approx(200.0)
        assert circular_tday_diff(0.0, 43200.0) == pytest.approx(43200.0)
        assert circular_tday_diff(10.0, 10.0) == 0.0


class TestCandidatePool:
    def _trace(self):
        return Trace([make_record(0.0, t_day=1000.0), make_record(HOUR, t_day=5000.0)])

    def test_only_truth_qualifies(self):
        trace = self._trace()
        # far-away records: nothing qualifies
        others = [make_record(50.0, t_day=30000.0, loc=(50.0, 50.0)) for _ in range(5)]
        index = RecordIndex.build(others + [trace[-1]])
        pool = build_candidate_pool(trace, index, 3500.0, 300.0, pool_size=10, seed=0)
        assert pool.insufficient
        assert len(pool.candidates) == 1
        assert pool.candidates[pool.truth_index] is trace[-1]

    def test_threshold_boundaries_are_closed(self):
        trace = self._trace()
        truth = trace[-1]
        at_boundary = make_record(10.0, t_day=truth.t_day, loc=(0.03, 0.0))
        boundary_dist = float(haversine_m(np.array([0.03, 0.0]), truth.loc))
        beyond = make_record(11.0, t_day=truth.t_day, loc=(0.0301, 0.0))
        at_time_edge = make_record(12.0, t_day=truth.t_day + 300.0, loc=truth.loc)
        past_time_edge = make_record(13.0, t_day=truth.t_day + 300.5, loc=truth.loc)
        index = RecordIndex.build([at_boundary, beyond, at_time_edge, past_time_edge, truth])
        pool = build_candidate_pool(
            trace, index, dist_thresh=boundary_dist, time_thresh=300.0, pool_size=10, seed=3
        )
        members = {id(c) for c in pool.candidates}
        assert id(at_boundary) in members
        assert id(at_time_edge) in members
        assert id(beyond) not in members
        assert id(past_time_edge) not in members
        assert pool.insufficient  # only 2 negatives qualified

    def test_same_seed_identical_pools(self):
        rng = np.random.default_rng(7)
        trace = self._trace()
        others = [
            make_record(float(i), t_day=trace[-1].t_day + rng.uniform(-200, 200),
                        loc=rng.normal(0.0, 0.005, size=2))
            for i in range(40)
        ]
        index = RecordIndex.build(others + [trace[-1]])
        a = build_candidate_pool(trace, index, 3500.0, 300.0, seed=9)
        b = build_candidate_pool(trace, index, 3500.0, 300.0, seed=9)
        assert a.truth_index == b.truth_index
        assert [id(c) for c in a.candidates] == [id(c) for c in b.candidates]
        assert len(a.candidates) == 10

    def test_negatives_never_violate_thresholds(self):
        rng = np.random.default_rng(11)
        trace = self._trace()
        truth = trace[-1]
        others = [
            make_record(float(i), t_day=rng.uniform(0, 86400),
                        loc=rng.normal(0.0, 0.05, size=2))
            for i in range(500)
        ]
        index = RecordIndex.build(others + [truth])
        pool = build_candidate_pool(trace, index, 2000.0, 300.0, seed=13)
        for cand in pool.candidates:
            assert float(haversine_m(cand.loc, truth.loc)) <= 2000.0
            assert float(circular_tday_diff(cand.t_day, truth.t_day)) <= 300.0

    def test_truth_appears_exactly_once(self):
        trace = self._trace()
        truth = trace[-1]
        others = [make_record(float(i), t_day=truth.t_day, loc=(0.001 * i, 0.0)) for i in range(20)]
        index = RecordIndex.build(others + [truth])
        pool = build_candidate_pool(trace, index, 3500.0, 300.0, seed=17)
        assert sum(1 for c in pool.candidates if c is truth) == 1
        assert pool.candidates[pool.truth_index] is truth


def assert_same_pool(pool, expected):
    assert pool.truth_index == expected.truth_index
    assert pool.insufficient == expected.insufficient
    assert len(pool.candidates) == len(expected.candidates)
    assert all(a is b for a, b in zip(pool.candidates, expected.candidates))


class TestTimeWindowPools:
    """The time-of-day window against the full-scan oracle in `_pool_reference`."""

    def _trace_at(self, t_day):
        return Trace([make_record(0.0, t_day=1000.0), make_record(HOUR, t_day=t_day)])

    def _index(self, truth, n=300, seed=0):
        # Times of day cluster around the truth's (wrapping at midnight)
        # and spread over the whole day; locations around the truth's.
        rng = np.random.default_rng(seed)
        near = (truth.t_day + rng.uniform(-900.0, 900.0, size=n // 2)) % 86400.0
        spread = rng.uniform(0.0, 86400.0, size=n - n // 2)
        others = [
            make_record(float(i), t_day=float(t), loc=truth.loc + rng.normal(0.0, 0.01, size=2))
            for i, t in enumerate(np.concatenate([near, spread]))
        ]
        order = rng.permutation(n + 1)
        return RecordIndex.build([(others + [truth])[i] for i in order])

    @pytest.mark.parametrize("t_day", [0.0, 30.0, 43200.0, 86370.0, 86399.5])
    @pytest.mark.parametrize("time_thresh", [0.0, 300.0, 43199.0, 43200.0, 50000.0, math.inf])
    def test_matches_full_scan(self, t_day, time_thresh):
        trace = self._trace_at(t_day)
        index = self._index(trace[-1], seed=int(t_day))
        for seed in range(5):
            pool = build_candidate_pool(trace, index, 1500.0, time_thresh, pool_size=10, seed=seed)
            expected = _pool_reference.build_candidate_pool(
                trace, index, 1500.0, time_thresh, pool_size=10, seed=seed
            )
            assert_same_pool(pool, expected)

    @pytest.mark.parametrize("t_day", [100.0, 86300.0])
    def test_records_on_the_wrapped_time_boundary(self, t_day):
        trace = self._trace_at(t_day)
        truth = trace[-1]
        boundary_dist = float(haversine_m(np.array([0.03, 0.0]), truth.loc))
        on_edges = [
            make_record(1.0, t_day=(t_day + 300.0) % 86400.0, loc=truth.loc),
            make_record(2.0, t_day=(t_day - 300.0) % 86400.0, loc=truth.loc),
            make_record(3.0, t_day=t_day, loc=(0.03, 0.0)),
        ]
        outside = [
            make_record(4.0, t_day=(t_day + 300.5) % 86400.0, loc=truth.loc),
            make_record(5.0, t_day=(t_day - 300.5) % 86400.0, loc=truth.loc),
            make_record(6.0, t_day=t_day, loc=(0.0301, 0.0)),
        ]
        for rec in on_edges:
            assert float(circular_tday_diff(rec.t_day, t_day)) <= 300.0
        index = RecordIndex.build(outside + on_edges + [truth])
        pool = build_candidate_pool(trace, index, boundary_dist, 300.0, pool_size=10, seed=1)
        expected = _pool_reference.build_candidate_pool(
            trace, index, boundary_dist, 300.0, pool_size=10, seed=1
        )
        assert_same_pool(pool, expected)
        members = {id(c) for c in pool.candidates}
        assert all(id(rec) in members for rec in on_edges)
        assert not any(id(rec) in members for rec in outside)

    def test_value_equal_copy_of_truth_is_a_negative(self):
        trace = self._trace_at(5000.0)
        truth = trace[-1]
        twin = dataclasses.replace(truth)
        index = RecordIndex.build([twin, truth, twin])
        for seed in range(4):
            pool = build_candidate_pool(trace, index, 3500.0, 300.0, pool_size=3, seed=seed)
            expected = _pool_reference.build_candidate_pool(
                trace, index, 3500.0, 300.0, pool_size=3, seed=seed
            )
            assert_same_pool(pool, expected)
            assert sum(c is truth for c in pool.candidates) == 1
            assert sum(c is twin for c in pool.candidates) == 2

    def test_truth_listed_twice_is_excluded_twice(self):
        trace = self._trace_at(5000.0)
        truth = trace[-1]
        near = make_record(1.0, t_day=5010.0, loc=truth.loc)
        index = RecordIndex.build([truth, near, truth])
        pool = build_candidate_pool(trace, index, 3500.0, 300.0, pool_size=10, seed=2)
        expected = _pool_reference.build_candidate_pool(
            trace, index, 3500.0, 300.0, pool_size=10, seed=2
        )
        assert_same_pool(pool, expected)
        assert len(pool.candidates) == 2

    @pytest.mark.parametrize("member", ["truth", "other"])
    def test_one_record_index(self, member):
        trace = self._trace_at(86390.0)
        record = trace[-1] if member == "truth" else make_record(1.0, t_day=20.0, loc=trace[-1].loc)
        index = RecordIndex.build([record])
        pool = build_candidate_pool(trace, index, 3500.0, 300.0, pool_size=10, seed=0)
        expected = _pool_reference.build_candidate_pool(
            trace, index, 3500.0, 300.0, pool_size=10, seed=0
        )
        assert_same_pool(pool, expected)
        assert pool.insufficient
        assert len(pool.candidates) == (1 if member == "truth" else 2)

    @pytest.mark.parametrize("time_thresh", [300.0, 43200.0])
    def test_empty_index_gives_truth_only_pool(self, time_thresh):
        index = RecordIndex.build([])
        assert index.locs.shape == (0, 2)
        trace = self._trace_at(500.0)
        pool = build_candidate_pool(trace, index, 3500.0, time_thresh, pool_size=10, seed=0)
        assert pool.insufficient
        assert pool.truth_index == 0
        assert len(pool.candidates) == 1 and pool.candidates[0] is trace[-1]

    @pytest.mark.parametrize("time_thresh", [0.0, 300.0, 7200.0, 43200.0])
    def test_build_pools_matches_full_scan(self, time_thresh):
        rng = np.random.default_rng(21)
        traces = [
            Trace([
                make_record(0.0, t_day=float(rng.uniform(0, 86400)),
                            loc=rng.normal(0.0, 0.02, size=2)),
                make_record(10.0, t_day=float(rng.choice([0.0, 5.0, 86395.0, rng.uniform(0, 86400)])),
                            loc=rng.normal(0.0, 0.02, size=2)),
            ])
            for _ in range(150)
        ]
        index = RecordIndex.from_traces(traces)
        pools = build_pools(traces, index, 2500.0, time_thresh, pool_size=5, seed=4)
        expected = _pool_reference.build_pools(traces, index, 2500.0, time_thresh, 5, 4)
        for pool, ref in zip(pools, expected):
            assert_same_pool(pool, ref)

    def test_direct_construction_derives_the_order(self):
        records = [make_record(float(i), t_day=t) for i, t in enumerate((500.0, 10.0, 500.0, 86000.0))]
        index = RecordIndex(
            records=records,
            locs=np.array([r.loc for r in records]),
            t_days=[r.t_day for r in records],
        )
        assert index.tday_order.tolist() == [1, 0, 2, 3]
        assert index.sorted_t_days.tolist() == [10.0, 500.0, 500.0, 86000.0]

    def test_truth_excluded_from_a_rounded_snapshot(self):
        # float32 locs and t_days put the truth at a non-zero distance and
        # time difference from itself; it is still excluded by identity.
        trace = Trace([make_record(0.0, t_day=1000.0),
                       make_record(HOUR, t_day=5000.3, loc=(0.1, 0.2))])
        truth = trace[-1]
        records = [make_record(1.0, t_day=5010.7, loc=(0.1001, 0.2)), truth,
                   make_record(2.0, t_day=4990.1, loc=(0.1, 0.2001))]
        index = RecordIndex(
            records=records,
            locs=np.array([r.loc for r in records], dtype=np.float32),
            t_days=np.array([r.t_day for r in records], dtype=np.float32),
        )
        assert float(haversine_m(index.locs[1], truth.loc)) > 0.0
        assert float(circular_tday_diff(index.t_days[1], truth.t_day)) > 0.0
        for seed in range(3):
            pool = build_candidate_pool(trace, index, 3500.0, 300.0, pool_size=3, seed=seed)
            expected = _pool_reference.build_candidate_pool(
                trace, index, 3500.0, 300.0, pool_size=3, seed=seed
            )
            assert_same_pool(pool, expected)
            assert sum(c is truth for c in pool.candidates) == 1
            assert not pool.insufficient

    @pytest.mark.parametrize("t_day", [-1.0, 86400.0, math.nan])
    def test_index_rejects_time_of_day_out_of_range(self, t_day):
        with pytest.raises(ValueError, match="t_days"):
            RecordIndex(records=[None], locs=np.zeros((1, 2)), t_days=np.array([t_day]))


class TestPoolParameters:
    @pytest.mark.parametrize("kwargs, name", [
        ({"dist_thresh": -1.0}, "dist_thresh"),
        ({"dist_thresh": math.nan}, "dist_thresh"),
        ({"time_thresh": -5.0}, "time_thresh"),
        ({"time_thresh": math.nan}, "time_thresh"),
        ({"pool_size": 1}, "pool_size"),
        ({"pool_size": 0}, "pool_size"),
        ({"pool_size": -3}, "pool_size"),
    ])
    def test_bad_parameter_is_named(self, kwargs, name):
        trace = Trace([make_record(0.0, t_day=1000.0), make_record(HOUR, t_day=5000.0)])
        index = RecordIndex.build(list(trace))
        args = {"dist_thresh": 3500.0, "time_thresh": 300.0, "pool_size": 10, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_candidate_pool(trace, index, **args)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_pools([trace], index, **args)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_pools([], index, **args)

    def test_smallest_valid_parameters(self):
        trace = Trace([make_record(0.0, t_day=1000.0), make_record(HOUR, t_day=5000.0)])
        twin = dataclasses.replace(trace[-1])
        index = RecordIndex.build([twin, trace[-1]])
        pool = build_candidate_pool(trace, index, 0.0, 0.0, pool_size=2, seed=0)
        assert not pool.insufficient
        assert {id(c) for c in pool.candidates} == {id(twin), id(trace[-1])}


class TestEvaluatePrediction:
    def _setup(self, n_pools, pool_size=10, seed=0):
        rng = np.random.default_rng(seed)
        tests, pools = [], []
        for i in range(n_pools):
            tests.append(Trace([make_record(0.0), make_record(10.0)]))
            cands = [make_record(100.0 + j) for j in range(pool_size)]
            from shmm.data_io import CandidatePool

            pools.append(
                CandidatePool(truth_index=int(rng.integers(pool_size)), candidates=cands)
            )
        return tests, pools

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, k):
        tests, pools = self._setup(3)
        with pytest.raises(ValueError, match=f"^accuracy cutoff K must be >= 1, got {k}$"):
            evaluate_prediction(None, tests, pools, [1, k])

    def test_k_equal_pool_size_is_always_one(self):
        tests, pools = self._setup(50)
        rng = np.random.default_rng(1)

        def stub(model, prefix, candidates, k_top):
            scores = rng.standard_normal(len(candidates))
            order = np.argsort(-scores, kind="stable")
            return [(int(i), float(scores[i])) for i in order[:k_top]]

        acc = evaluate_prediction(None, tests, pools, [10], score_fn=stub)
        assert acc[10] == 1.0

    def test_null_scorer_hits_chance_rate(self):
        tests, pools = self._setup(10_000, seed=2)
        rng = np.random.default_rng(3)

        def stub(model, prefix, candidates, k_top):
            scores = rng.standard_normal(len(candidates))
            order = np.argsort(-scores, kind="stable")
            return [(int(i), float(scores[i])) for i in order[:k_top]]

        acc = evaluate_prediction(None, tests, pools, [1], score_fn=stub)
        assert acc[1] == pytest.approx(0.1, abs=0.02)

    def test_alignment_enforced(self):
        tests, pools = self._setup(4)
        with pytest.raises(ValueError):
            evaluate_prediction(None, tests, pools[:-1], [1])

    def test_short_test_trace_is_named_before_any_scoring(self):
        tests, pools = self._setup(3)
        tests[1] = Trace([make_record(0.0)])
        calls = []

        def stub(model, prefix, candidates, k_top):
            calls.append(prefix)
            return [(i, 0.0) for i in range(k_top)]

        with pytest.raises(ValueError,
                           match="^trace 1: test trace must have at least 2 records$"):
            evaluate_prediction(None, tests, pools, [1], score_fn=stub)
        assert calls == []

    def test_short_test_trace_is_named_before_any_pool(self):
        tests = [Trace([make_record(0.0), make_record(10.0)]), Trace([make_record(20.0)])]
        index = RecordIndex.from_traces(tests)
        with pytest.raises(ValueError,
                           match="^trace 1: test trace must have at least 2 records$"):
            build_pools(tests, index, 3500.0, 300.0)


#: Edits of one record that `_trace_from_doc` rejects, with the reason it gives.
BAD_RECORD_EDITS = [
    pytest.param(lambda doc: doc["records"][1].pop("t_day"), "missing field 't_day'",
                 id="missing-field"),
    pytest.param(lambda doc: doc["records"][0].update(embedding=[1.0, 1.0, 0.0]),
                 "embedding must be unit norm", id="non-unit-embedding"),
    pytest.param(lambda doc: doc["records"][0].update(lon="east"), "could not convert",
                 id="bad-value"),
    *[pytest.param(lambda doc, name=name: doc["records"][0].update({name: True}),
                   f"{name} must be a number, got true$", id=f"{name}-bool")
      for name in ("t_abs", "t_day", "lon", "lat")],
    pytest.param(lambda doc: doc["records"][0].update(embedding=[[1.0, 0.0, 0.0]]),
                 r"embedding must be a vector, got shape \(1, 3\)$", id="embedding-2d"),
    pytest.param(lambda doc: doc["records"][0].update(embedding=1.0),
                 r"embedding must be a vector, got shape \(\)$", id="embedding-scalar"),
    pytest.param(lambda doc: doc["records"][0].update(embedding=[True, False, False]),
                 "embedding coordinates must be numbers, got a JSON boolean$",
                 id="embedding-bool"),
]


class TestTimestampsAndPersistence:
    def test_parse_epoch_and_iso(self):
        assert parse_timestamp(1_400_000_000) == 1_400_000_000.0
        assert parse_timestamp("2014-08-01T00:00:00Z") == pytest.approx(1406851200.0)
        assert parse_timestamp("2014-08-01T00:00:00+00:00") == pytest.approx(1406851200.0)

    def test_time_of_day_with_offset(self):
        # UTC-7: 2014-08-01T00:00:00Z is 17:00 local the previous day
        t = to_time_of_day(1406851200.0, -7 * 3600.0)
        assert t == pytest.approx(17 * 3600.0)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_utc_offset_is_rejected(self, offset):
        with pytest.raises(ValueError, match=f"^utc_offset must be finite, got {offset}$"):
            to_time_of_day(1406851200.0, offset)

    def test_corpus_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = []
        for i in range(3):
            records = [
                SemanticRecord(
                    user_id=f"user{i}",
                    t_abs=float(j) * 1000.0,
                    t_day=float(rng.uniform(0, 86400)),
                    loc=rng.standard_normal(2),
                    embedding=unit(rng.standard_normal(5)),
                    raw_text=f"message {j}",
                )
                for j in range(4)
            ]
            traces.append(Trace(records))
        path = tmp_path / "corpus.ndjson"
        write_corpus(traces, path)
        loaded = read_corpus(path)
        assert len(loaded) == 3
        for a, b in zip(loaded, traces):
            assert a[0].user_id == b[0].user_id
            np.testing.assert_array_equal(stack_records(a)[2], stack_records(b)[2])
            np.testing.assert_array_equal(stack_records(a)[1], stack_records(b)[1])
            assert [r.raw_text for r in a] == [r.raw_text for r in b]

    def test_corpus_round_trip_gzip(self, tmp_path):
        traces = [Trace([make_record(0.0), make_record(50.0)])]
        path = tmp_path / "corpus.ndjson.gz"
        write_corpus(traces, path)
        loaded = read_corpus(path)
        assert len(loaded[0]) == 2

    @pytest.mark.parametrize("edit, message", BAD_RECORD_EDITS)
    def test_bad_record_is_located(self, tmp_path, edit, message):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])] * 3, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        edit(doc)
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{message}"):
            read_corpus(path)

    def test_nan_embedding_is_located(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])] * 5, path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[3])
        doc["records"][1]["embedding"] = [math.nan, 0.0, 0.0]
        lines[3] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}:4: embedding must be unit norm, got ||e|| = nan"

    def test_nan_t_abs_is_located(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(10.0), make_record(20.0)])] * 2, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"t_abs": 10.0', '"t_abs": NaN')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}:2: t_abs must be finite, got nan"

    @pytest.mark.parametrize("position", [0, 2])
    def test_reading_an_empty_trace_names_its_line(self, tmp_path, position):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])] * 3, path)
        lines = path.read_text().splitlines()
        lines[position] = json.dumps({"user_id": "u", "records": []})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}:{position + 1}: a trace needs at least one record"

    def test_user_id_is_read_as_text(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])], path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, user_id=5)) + "\n")
        loaded = read_corpus(path)
        assert [r.user_id for r in loaded[0]] == ["5", "5"]
        write_corpus(loaded, path)
        assert json.loads(path.read_text())["user_id"] == "5"

    def test_text_is_read_as_text_and_null_stays_null(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])], path)
        doc = json.loads(path.read_text())
        doc["records"][0]["text"] = 5
        path.write_text(json.dumps(doc) + "\n")
        loaded = read_corpus(path)
        assert [r.raw_text for r in loaded[0]] == ["5", None]
        write_corpus(loaded, path)
        assert [r["text"] for r in json.loads(path.read_text())["records"]] == ["5", None]

    def test_trace_mixing_user_ids_is_not_written(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        same = Trace([make_record(0.0), make_record(50.0)])
        mixed = Trace([make_record(0.0, user="bob"), make_record(50.0, user="alice")])
        with pytest.raises(ValueError) as info:
            write_corpus([same] * 3 + [mixed], path)
        assert str(info.value) == "trace 3: records mix user_ids ['alice', 'bob']"
        assert not path.exists()

    def test_written_corpus_reads_back_and_writes_out_byte_identical(self, tmp_path):
        model = planted_model(3, 5, seed=8)
        first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_corpus(sample_corpus(model, 6, 4, seed=9), first)
        write_corpus(read_corpus(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_invalid_json_is_located(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])] * 2, path)
        path.write_text(path.read_text() + "\n{not json\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: invalid JSON"):
            read_corpus(path)

    def test_pools_per_trace_seeds(self):
        rng = np.random.default_rng(5)
        tests = []
        for i in range(4):
            tests.append(
                Trace([make_record(0.0, t_day=1000.0), make_record(10.0, t_day=1100.0)])
            )
        others = [
            make_record(float(i), t_day=1100.0 + rng.uniform(-300, 300),
                        loc=rng.normal(0.0, 0.002, size=2))
            for i in range(200)
        ]
        index = RecordIndex.build(others)
        pools_a = build_pools(tests, index, 3500.0, 300.0, seed=7)
        pools_b = build_pools(tests, index, 3500.0, 300.0, seed=7)
        for a, b in zip(pools_a, pools_b):
            assert a.truth_index == b.truth_index
            assert [id(c) for c in a.candidates] == [id(c) for c in b.candidates]


def _edited_corpus(path, traces, lineno, edit):
    """Write traces to path, then apply edit to the decoded document on line lineno."""
    write_corpus(traces, path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[lineno - 1])
    edit(doc)
    lines[lineno - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set(index, **fields):
    """Edit: set fields of record index."""
    return lambda doc: doc["records"][index].update(fields)


#: Line edits that `_trace_from_doc` accepts or rejects, each read by both readers.
LINE_EDITS = [
    pytest.param(_set(1, embedding=[math.nan, 0.0, 0.0]), id="nan-embedding"),
    pytest.param(_set(1, t_abs=math.nan), id="nan-t_abs"),
    pytest.param(_set(0, lon=math.nan), id="nan-lon"),
    pytest.param(lambda doc: doc.update(records=[]), id="empty-trace"),
    pytest.param(_set(1, t_abs=10 ** 400), id="overflowing-t_abs"),
    pytest.param(_set(1, embedding=[10 ** 400, 0, 0]), id="overflowing-coordinate"),
    pytest.param(_set(1, embedding=[]), id="empty-embedding"),
    pytest.param(_set(1, embedding=[0.6, 0.8, 0.0, 0.0]), id="mixed-embedding-lengths"),
    pytest.param(_set(1, t_abs=-1.0), id="unordered-t_abs"),
    pytest.param(_set(1, t_day=86_400.0), id="t_day-past-midnight"),
    pytest.param(_set(1, t_day=-0.0), id="t_day-negative-zero"),
    pytest.param(lambda doc: doc.pop("user_id"), id="missing-user_id"),
    pytest.param(lambda doc: doc.update(records={"t_abs": 0.0}), id="records-an-object"),
    pytest.param(lambda doc: doc["records"].append([0.0]), id="record-a-list"),
    pytest.param(_set(1, t_abs="50.5"), id="t_abs-a-numeric-string"),
    pytest.param(_set(1, t_abs=2 ** 53 + 1), id="t_abs-int-beyond-2**53"),
    pytest.param(_set(0, t_abs=0, t_day=0, lon=0, lat=-2, embedding=[0, 1, 0]),
                 id="all-int-record"),
    pytest.param(_set(1, embedding=[0, 0, 1]), id="int-embedding"),
    pytest.param(_set(1, embedding=[0.6, 0.8]), id="shorter-trace-embedding"),
    pytest.param(_set(0, text="true story"), id="text-holding-true"),
    pytest.param(lambda doc: doc.update(user_id=5), id="int-user_id"),
    pytest.param(lambda doc: doc.update(user_id=False), id="bool-user_id"),
    pytest.param(lambda doc: doc.update(records=doc["records"][:1]), id="one-record-trace"),
]


class TestReadColumns:
    """`read_columns` against `read_corpus` as the oracle (`assert_readers_agree`)."""

    def test_uniform_lengths(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus(sample_corpus(planted_model(5, 30, seed=1), 40, 20, seed=2), path)
        assert assert_readers_agree(path) is not None

    def test_mixed_lengths(self, tmp_path):
        model = planted_model(4, 30, seed=3)
        lengths = 1 + np.random.default_rng(4).geometric(1 / 12, size=60)
        traces = [sample_corpus(model, 1, int(n), seed=i)[0] for i, n in enumerate(lengths)]
        for i, trace in enumerate(traces):
            for record in trace:
                record.user_id = f"user-{i}"
        path = tmp_path / "corpus.ndjson"
        write_corpus(traces, path)
        assert assert_readers_agree(path) is not None

    def test_one_record_traces_with_int_numbers_and_texts(self, tmp_path):
        traces = [Trace([SemanticRecord(user_id=f"u{i}", t_abs=float(i), t_day=float(i),
                                        loc=np.array([i, -i], dtype=float),
                                        embedding=np.eye(3)[i % 3], raw_text=text)])
                  for i, text in enumerate(["a", None, "", "c d"])]
        path = tmp_path / "corpus.ndjson"
        write_corpus(traces, path)
        # int literals and texts of other JSON types, on a line of its own
        path.write_text(path.read_text() + json.dumps({"user_id": 7, "records": [
            {"t_abs": 3, "t_day": 4, "lon": 5, "lat": 6, "embedding": [0, 1, 0], "text": 8},
            {"t_abs": 4, "t_day": 5.5, "lon": 5, "lat": 6, "embedding": [1, 0, 0],
             "text": {"a": [1]}},
            {"t_abs": 5, "t_day": 6, "lon": 5, "lat": 6, "embedding": [0.6, 0, 0.8]},
        ]}) + "\n")
        corpus = assert_readers_agree(path)
        assert corpus.texts == ("a", None, "", "c d", "8", "{'a': [1]}", None)

    def test_gzip(self, tmp_path):
        path = tmp_path / "corpus.ndjson.gz"
        write_corpus(sample_corpus(planted_model(3, 5, seed=5), 6, 4, seed=6), path)
        assert assert_readers_agree(path) is not None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_text("\n")
        corpus = read_columns(path)
        assert len(corpus) == 0 and corpus.embeds.shape == (0, 0)

    @pytest.mark.parametrize("edit, message", BAD_RECORD_EDITS)
    def test_bad_record_edits(self, tmp_path, edit, message):
        path = _edited_corpus(tmp_path / "corpus.ndjson",
                              [Trace([make_record(0.0), make_record(50.0)])] * 3, 2, edit)
        assert assert_readers_agree(path) is None

    @pytest.mark.parametrize("lineno", [1, 3])
    @pytest.mark.parametrize("edit", LINE_EDITS)
    def test_line_edits(self, tmp_path, edit, lineno):
        path = _edited_corpus(tmp_path / "corpus.ndjson",
                              [Trace([make_record(0.0), make_record(50.0)])] * 3, lineno, edit)
        assert_readers_agree(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus([Trace([make_record(0.0), make_record(50.0)])] * 2, path)
        path.write_text(path.read_text() + "\n{not json\n[1, 2]\n")
        assert assert_readers_agree(path) is None

    def test_other_embedding_dim_names_its_line(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        traces = [Trace([make_record(0.0), make_record(50.0)])] * 5
        traces[3] = Trace([make_record(0.0, p=5), make_record(50.0, p=5)])
        write_corpus(traces, path)
        assert len(read_corpus(path)) == 5
        with pytest.raises(ValueError) as info:
            read_columns(path)
        assert str(info.value) == f"{path}:4: trace embedding dim 5 != corpus 3"
