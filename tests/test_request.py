"""Tests for ride requests and served-trip records."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.demand.request import RequestError, RideRequest, ServedTrip


class TestRideRequest:
    def test_basic_fields(self, request_factory):
        r = request_factory(request_id=7, release_time=10.0, direct_cost=100.0, rho=1.3)
        assert r.request_id == 7
        assert r.deadline == pytest.approx(10.0 + 130.0)

    def test_pickup_deadline(self, request_factory):
        r = request_factory(release_time=0.0, direct_cost=100.0, rho=1.3)
        assert r.pickup_deadline == pytest.approx(30.0)

    def test_max_wait_equals_slack(self, request_factory):
        r = request_factory(release_time=50.0, direct_cost=200.0, rho=1.5)
        assert r.max_wait == pytest.approx(100.0)
        assert r.slack == pytest.approx(100.0)

    def test_negative_release_rejected(self):
        with pytest.raises(RequestError):
            RideRequest(0, -1.0, 0, 1, 100.0, 50.0)

    def test_infeasible_deadline_rejected(self):
        with pytest.raises(RequestError):
            RideRequest(0, 0.0, 0, 1, deadline=40.0, direct_cost=50.0)

    def test_zero_passengers_rejected(self):
        with pytest.raises(RequestError):
            RideRequest(0, 0.0, 0, 1, 100.0, 50.0, num_passengers=0)

    def test_negative_direct_cost_rejected(self):
        with pytest.raises(RequestError):
            RideRequest(0, 0.0, 0, 1, 100.0, -5.0)

    def test_rho_below_one_rejected(self, request_factory):
        with pytest.raises(RequestError):
            request_factory(rho=0.9)

    def test_offline_flag(self, request_factory):
        assert request_factory(offline=True).offline
        assert not request_factory().offline

    def test_frozen(self, request_factory):
        with pytest.raises(AttributeError):
            request_factory().deadline = 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=2.0),
    )
    def test_flexible_factor_invariants(self, t, cost, rho):
        r = RideRequest.from_flexible_factor(0, t, 0, 1, cost, rho=rho)
        assert r.deadline >= r.release_time + r.direct_cost - 1e-9
        assert r.max_wait == pytest.approx((rho - 1.0) * cost, rel=1e-6, abs=1e-6)
        assert r.pickup_deadline <= r.deadline


class TestServedTrip:
    def test_lifecycle(self, request_factory):
        r = request_factory(release_time=100.0, direct_cost=300.0, rho=1.5)
        trip = ServedTrip(request=r, taxi_id=3, assign_time=101.0)
        assert not trip.completed
        trip.pickup_time = 160.0
        trip.dropoff_time = 500.0
        trip.shared_travel_cost = 340.0
        assert trip.completed
        assert trip.waiting_time == pytest.approx(60.0)
        assert trip.detour_time == pytest.approx(40.0)

    def test_detour_clamped_at_zero(self, request_factory):
        r = request_factory(direct_cost=300.0)
        trip = ServedTrip(request=r, taxi_id=0, assign_time=0.0)
        trip.pickup_time = 0.0
        trip.dropoff_time = 290.0
        trip.shared_travel_cost = 290.0
        assert trip.detour_time == 0.0

    def test_incomplete_has_nan_fields(self, request_factory):
        trip = ServedTrip(request=request_factory(), taxi_id=0, assign_time=0.0)
        assert math.isnan(trip.dropoff_time)
