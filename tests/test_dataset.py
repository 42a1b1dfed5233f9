"""Tests for the trip-dataset container and Fig. 5 statistics."""

import numpy as np
import pytest

from repro.demand.dataset import TripDataset


def make_dataset(times, origins=None, dests=None, taxis=None):
    m = len(times)
    return TripDataset(
        release_times=np.asarray(times, dtype=float),
        origins=np.asarray(origins if origins is not None else [0] * m),
        destinations=np.asarray(dests if dests is not None else [8] * m),
        taxi_ids=np.asarray(taxis if taxis is not None else [0] * m),
    )


class TestContainer:
    def test_len(self):
        assert len(make_dataset([1.0, 2.0, 3.0])) == 3

    def test_sorts_by_release_time(self):
        ds = make_dataset([5.0, 1.0, 3.0], origins=[5, 1, 3])
        assert ds.release_times.tolist() == [1.0, 3.0, 5.0]
        assert ds.origins.tolist() == [1, 3, 5]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TripDataset(
                release_times=np.array([1.0]),
                origins=np.array([0, 1]),
                destinations=np.array([1]),
                taxi_ids=np.array([0]),
            )

    def test_window(self):
        ds = make_dataset([0.0, 10.0, 20.0, 30.0])
        w = ds.window(10.0, 30.0)
        assert w.release_times.tolist() == [10.0, 20.0]

    def test_exclude_window(self):
        ds = make_dataset([0.0, 10.0, 20.0, 30.0])
        rest = ds.exclude_window(10.0, 30.0)
        assert rest.release_times.tolist() == [0.0, 30.0]

    def test_window_plus_exclusion_partitions(self):
        ds = make_dataset(list(range(10)))
        assert len(ds.window(3, 7)) + len(ds.exclude_window(3, 7)) == 10

    def test_od_pairs(self):
        ds = make_dataset([1.0, 2.0], origins=[3, 4], dests=[5, 6])
        assert ds.od_pairs().tolist() == [[3, 5], [4, 6]]


class TestToRequests:
    def test_conversion(self, tiny_engine):
        ds = make_dataset([0.0, 10.0], origins=[0, 1], dests=[8, 7])
        reqs = ds.to_requests(tiny_engine, rho=1.3)
        assert len(reqs) == 2
        assert reqs[0].direct_cost == pytest.approx(tiny_engine.cost(0, 8))
        assert reqs[0].release_time == 0.0

    def test_time_origin_shift(self, tiny_engine):
        ds = make_dataset([100.0], origins=[0], dests=[8])
        reqs = ds.to_requests(tiny_engine, time_origin=90.0)
        assert reqs[0].release_time == pytest.approx(10.0)

    def test_zero_cost_trips_dropped(self, tiny_engine):
        ds = make_dataset([0.0], origins=[4], dests=[4])
        assert ds.to_requests(tiny_engine) == []

    def test_offline_sampling(self, tiny_engine):
        ds = make_dataset([float(i) for i in range(20)], origins=[0] * 20, dests=[8] * 20)
        reqs = ds.to_requests(tiny_engine, offline_count=5, seed=1)
        assert sum(1 for r in reqs if r.offline) == 5

    def test_offline_count_too_large_rejected(self, tiny_engine):
        ds = make_dataset([0.0])
        with pytest.raises(ValueError):
            ds.to_requests(tiny_engine, offline_count=2)

    def test_request_ids_contiguous(self, tiny_engine):
        ds = make_dataset([0.0, 1.0, 2.0], origins=[0, 4, 1], dests=[8, 4, 7])
        reqs = ds.to_requests(tiny_engine)
        assert [r.request_id for r in reqs] == [0, 1]


class TestStatistics:
    def test_travel_time_distribution(self, tiny_engine):
        ds = make_dataset([0.0, 1.0], origins=[0, 0], dests=[2, 8])
        pct = ds.travel_time_distribution(tiny_engine, percentiles=(50.0,))
        lo = tiny_engine.cost(0, 2)
        hi = tiny_engine.cost(0, 8)
        assert lo <= pct[50.0] <= hi

    def test_utilization_bounded(self, tiny_engine):
        ds = make_dataset([0.0, 600.0, 1200.0], origins=[0, 1, 2], dests=[8, 7, 6],
                          taxis=[0, 0, 1])
        util = ds.hourly_utilization(tiny_engine)
        assert all(0.0 <= u <= 1.0 for u in util.values())
        assert 0 in util

    def test_utilization_empty(self, tiny_engine):
        assert make_dataset([]).hourly_utilization(tiny_engine) == {}
