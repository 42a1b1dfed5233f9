"""Tests for taxi state, route execution and stop firing."""

import pytest

from repro.fleet.schedule import dropoff, pickup
from repro.fleet.taxi import FleetLog, Taxi, TaxiError, TaxiRoute
from tests.conftest import build_route, is_path, make_request


def straight_route(nodes, start_time, per_hop, stop_positions=()):
    times = [start_time + i * per_hop for i in range(len(nodes))]
    return TaxiRoute(nodes=list(nodes), times=times, stop_positions=list(stop_positions))


class TestTaxiRoute:
    def test_validation_lengths(self):
        with pytest.raises(TaxiError):
            TaxiRoute(nodes=[0, 1], times=[0.0])

    def test_validation_monotone_times(self):
        with pytest.raises(TaxiError):
            TaxiRoute(nodes=[0, 1], times=[5.0, 1.0])

    def test_validation_stop_positions(self):
        with pytest.raises(TaxiError):
            TaxiRoute(nodes=[0, 1], times=[0.0, 1.0], stop_positions=[5])
        with pytest.raises(TaxiError):
            TaxiRoute(nodes=[0, 1], times=[0.0, 1.0], stop_positions=[1, 0])

    def test_empty(self):
        r = TaxiRoute()
        assert r.empty
        assert r.total_cost() == 0.0
        with pytest.raises(TaxiError):
            _ = r.end_time

    def test_total_cost(self):
        r = straight_route([0, 1, 2], 10.0, 5.0)
        assert r.total_cost() == 10.0
        assert r.end_time == 20.0


class TestBuildRoute:
    def test_concatenates_legs(self, tiny_net, tiny_engine):
        r = make_request(origin=2, destination=8, direct_cost=tiny_engine.cost(2, 8))
        stops = [pickup(r), dropoff(r)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        assert route.nodes[0] == 0
        assert route.nodes[route.stop_positions[0]] == 2
        assert route.nodes[route.stop_positions[1]] == 8
        assert is_path(tiny_net, route.nodes)

    def test_times_are_cumulative(self, tiny_net, tiny_engine):
        r = make_request(origin=1, destination=2, direct_cost=tiny_engine.cost(1, 2))
        route = build_route(0, 100.0, [pickup(r), dropoff(r)], tiny_engine.path,
                            tiny_net.path_cost_s)
        assert route.times[0] == 100.0
        assert route.end_time == pytest.approx(100.0 + tiny_engine.cost(0, 2))

    def test_invalid_leg_rejected(self, tiny_net):
        r = make_request(origin=2, destination=8, direct_cost=100.0)
        with pytest.raises(TaxiError):
            build_route(0, 0.0, [pickup(r)], lambda u, v: [u], tiny_net.path_cost_s)


class TestTaxiAdvance:
    def make_taxi_with_trip(self, tiny_net, tiny_engine, rho=2.0):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request(origin=1, destination=2, direct_cost=tiny_engine.cost(1, 2), rho=rho)
        stops = [pickup(r), dropoff(r)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.assign(r)
        taxi.set_plan(stops, route)
        return taxi, r

    def test_advance_fires_stops_in_order(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        events = []
        taxi.advance(
            1e9,
            on_pickup=lambda t, req, at: events.append(("pu", req.request_id, at)),
            on_dropoff=lambda t, req, at: events.append(("do", req.request_id, at)),
        )
        assert [e[0] for e in events] == ["pu", "do"]
        assert events[0][2] < events[1][2]
        assert taxi.idle
        assert taxi.occupancy == 0
        assert taxi.loc == 2

    def test_partial_advance(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        hop = tiny_net.meters_to_seconds(100.0)
        traversed = taxi.advance(hop + 1e-6)
        assert [n for n, _t in traversed] == [0, 1]
        assert taxi.onboard  # picked up at vertex 1
        assert not taxi.idle

    def test_position_at_mid_route(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        hop = tiny_net.meters_to_seconds(100.0)
        taxi.advance(hop * 0.5)
        node, ready = taxi.position_at(hop * 0.5)
        assert node == 1  # next vertex on the route
        assert ready == pytest.approx(hop)

    def test_position_when_idle(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=5)
        assert taxi.position_at(42.0) == (5, 42.0)

    def test_assign_duplicate_rejected(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        with pytest.raises(TaxiError):
            taxi.assign(r)

    def test_pickup_without_assignment_raises(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request(origin=1, destination=2, direct_cost=tiny_engine.cost(1, 2), rho=2.0)
        stops = [pickup(r), dropoff(r)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.set_plan(stops, route)
        with pytest.raises(TaxiError):
            taxi.advance(1e9)

    def test_counters_track_passengers(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        assert taxi.committed == 1
        assert taxi.occupancy == 0
        hop = tiny_net.meters_to_seconds(100.0)
        taxi.advance(hop + 1e-6)  # picked up
        assert taxi.occupancy == 1
        assert taxi.committed == 1
        taxi.advance(1e9)
        assert taxi.committed == 0

    def test_remaining_route_cost(self, tiny_net, tiny_engine):
        taxi, r = self.make_taxi_with_trip(tiny_net, tiny_engine)
        assert taxi.remaining_route_cost(0.0) == pytest.approx(taxi.route.end_time)
        taxi.advance(1e9)
        assert taxi.remaining_route_cost(1e9) == 0.0

    def test_cruise_route_costs_nothing_to_abandon(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.set_plan([], straight_route([0, 1, 2], 0.0, 10.0))
        assert taxi.idle  # no schedule
        assert taxi.remaining_route_cost(0.0) == 0.0

    def test_cruise_moves_taxi(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.set_plan([], straight_route([0, 1, 2], 0.0, 10.0))
        traversed = taxi.advance(15.0)
        assert [n for n, _t in traversed] == [0, 1]
        assert taxi.loc == 1

    def test_plan_mismatch_rejected(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request()
        with pytest.raises(TaxiError):
            taxi.set_plan([pickup(r)], straight_route([0, 1], 0.0, 1.0))


class TestFleetLog:
    def test_lifecycle(self, tiny_engine):
        log = FleetLog()
        r = make_request(release_time=5.0, direct_cost=100.0, rho=2.0)
        log.record_assignment(r, taxi_id=3, assign_time=6.0)
        log.record_pickup(r, 30.0)
        log.record_dropoff(r, 150.0)
        trip = log.trips[r.request_id]
        assert trip.waiting_time == pytest.approx(25.0)
        assert trip.shared_travel_cost == pytest.approx(120.0)
        assert log.completed() == [trip]

    def test_incomplete_not_listed(self):
        log = FleetLog()
        r = make_request()
        log.record_assignment(r, 0, 0.0)
        assert log.completed() == []


class TestPlanTeardownGate:
    """Regression: ``advance`` must tear down every completed plan.

    The old gate required ``_stops_fired`` to be truthy *and* the route
    cursor to have consumed every vertex, so two legitimate plan shapes
    never reset: a zero-stop plan installed via ``set_plan`` (a cruise)
    kept its stale route/cursor forever, and a fully-fired schedule
    whose route carried trailing vertices reported non-idle with an
    empty ``pending_stops()`` — spinning the simulator's drain loop
    until the horizon cut the run."""

    def test_consumed_cruise_plan_resets(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.set_plan([], straight_route([0, 1, 2], 0.0, 10.0))
        taxi.advance(1e9)
        assert taxi.loc == 2
        # Zero stops ever fired, yet the finished plan must be cleared.
        assert taxi.route.empty
        assert taxi.idle
        assert taxi.position_at(100.0) == (2, 100.0)

    def test_trailing_route_tail_demoted_to_cruise(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request(origin=1, destination=2, direct_cost=tiny_engine.cost(1, 2), rho=2.0)
        stops = [pickup(r), dropoff(r)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        # Extend the route past the last stop (e.g. a repositioning leg).
        tail_path = tiny_engine.path(2, 8)
        nodes = list(route.nodes)
        times = list(route.times)
        for u, v in zip(tail_path, tail_path[1:]):
            times.append(times[-1] + tiny_net.path_cost_s([u, v]))
            nodes.append(v)
        taxi.assign(r)
        taxi.set_plan(stops, TaxiRoute(nodes=nodes, times=times,
                                       stop_positions=list(route.stop_positions)))

        # Advance just past the final drop-off: everyone is served.
        taxi.advance(route.end_time + 1e-6)
        assert taxi.occupancy == 0
        assert taxi.pending_stops() == []
        # The taxi must report idle despite the remaining tail...
        assert taxi.idle
        # ... and the tail becomes a passenger-less cruise it still drives.
        assert not taxi.route.empty
        assert taxi.remaining_route_cost(route.end_time) == 0.0
        taxi.advance(1e9)
        assert taxi.loc == 8
        assert taxi.route.empty  # fully consumed -> cleared
