"""Tests for taxi schedules: stops, insertions, feasibility."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.schedule import (
    StopKind,
    arrival_times,
    capacity_ok,
    deadlines_met,
    dropoff,
    enumerate_insertions,
    pickup,
    request_stop_pair,
)
from tests.conftest import make_request


def const_cost(value):
    return lambda u, v: 0.0 if u == v else value


class TestStops:
    def test_pickup_node_and_deadline(self):
        r = make_request(origin=2, destination=7, release_time=0.0, direct_cost=100.0, rho=1.3)
        pu = pickup(r)
        assert pu.node == 2
        assert pu.deadline == pytest.approx(30.0)
        assert pu.passenger_delta == 1

    def test_dropoff_node_and_deadline(self):
        r = make_request(origin=2, destination=7, direct_cost=100.0, rho=1.3)
        do = dropoff(r)
        assert do.node == 7
        assert do.deadline == pytest.approx(130.0)
        assert do.passenger_delta == -1

    def test_pair(self):
        pu, do = request_stop_pair(make_request())
        assert pu.kind is StopKind.PICKUP
        assert do.kind is StopKind.DROPOFF


class TestEnumerateInsertions:
    def test_empty_schedule_single_instance(self):
        instances = list(enumerate_insertions([], make_request()))
        assert len(instances) == 1
        _i, _j, stops = instances[0]
        assert [s.kind for s in stops] == [StopKind.PICKUP, StopKind.DROPOFF]

    @pytest.mark.parametrize("m, expected", [(0, 1), (1, 3), (2, 6), (3, 10), (4, 15)])
    def test_instance_count(self, m, expected):
        base = []
        for k in range(m):
            base.append(pickup(make_request(request_id=100 + k)))
        instances = list(enumerate_insertions(base, make_request(request_id=99)))
        assert len(instances) == expected

    def test_pickup_always_before_dropoff(self):
        base = [pickup(make_request(request_id=1)), dropoff(make_request(request_id=1))]
        new = make_request(request_id=2)
        for _i, _j, stops in enumerate_insertions(base, new):
            pu_idx = next(k for k, s in enumerate(stops)
                          if s.request.request_id == 2 and s.kind is StopKind.PICKUP)
            do_idx = next(k for k, s in enumerate(stops)
                          if s.request.request_id == 2 and s.kind is StopKind.DROPOFF)
            assert pu_idx < do_idx

    def test_existing_order_preserved(self):
        r1, r2 = make_request(request_id=1), make_request(request_id=2)
        base = [pickup(r1), pickup(r2)]
        new = make_request(request_id=3)
        for _i, _j, stops in enumerate_insertions(base, new):
            olds = [s.request.request_id for s in stops if s.request.request_id != 3]
            assert olds == [1, 2]

    def test_indices_point_at_inserted_stops(self):
        base = [pickup(make_request(request_id=1))]
        new = make_request(request_id=2)
        for i, j, stops in enumerate_insertions(base, new):
            assert stops[i].request.request_id == 2
            assert stops[i].kind is StopKind.PICKUP
            assert stops[j].request.request_id == 2
            assert stops[j].kind is StopKind.DROPOFF


class TestArrivalTimes:
    def test_constant_cost(self):
        r = make_request(origin=1, destination=2, direct_cost=500.0)
        times = arrival_times(0, 100.0, [pickup(r), dropoff(r)], const_cost(10.0))
        assert times == [110.0, 120.0]

    def test_same_node_free(self):
        r = make_request(origin=5, destination=5, direct_cost=100.0)
        times = arrival_times(5, 0.0, [pickup(r), dropoff(r)], const_cost(10.0))
        assert times == [0.0, 0.0]

    def test_empty_schedule(self):
        assert arrival_times(0, 0.0, [], const_cost(1.0)) == []


class TestFeasibility:
    def test_deadlines_met(self):
        r = make_request(direct_cost=1000.0, rho=1.5)
        stops = [pickup(r), dropoff(r)]
        assert deadlines_met(stops, [100.0, 1200.0])
        assert not deadlines_met(stops, [600.0, 1700.0])

    def test_capacity_ok(self):
        r1 = make_request(request_id=1, num_passengers=2)
        r2 = make_request(request_id=2, num_passengers=2)
        stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
        assert capacity_ok(stops, 0, 4)
        assert not capacity_ok(stops, 0, 3)
        assert not capacity_ok(stops, 1, 4)

    def test_capacity_with_interleaving(self):
        r1 = make_request(request_id=1, num_passengers=2)
        r2 = make_request(request_id=2, num_passengers=2)
        stops = [pickup(r1), dropoff(r1), pickup(r2), dropoff(r2)]
        assert capacity_ok(stops, 0, 2)

    def test_negative_onboard_raises(self):
        r = make_request(request_id=1)
        with pytest.raises(ValueError):
            capacity_ok([dropoff(r)], 0, 4)


class TestInsertionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10))
    def test_every_instance_has_all_stops(self, m, seed):
        base = []
        for k in range(m):
            r = make_request(request_id=10 + k)
            base.append(pickup(r))
        new = make_request(request_id=1)
        count = 0
        for _i, _j, stops in enumerate_insertions(base, new):
            count += 1
            assert len(stops) == m + 2
        assert count == (m + 1) * (m + 2) // 2
