"""Proactive idle-taxi rebalancing (repro.fleet.rebalance; ISSUE/PR 10).

Four properties anchor the subsystem:

* the ``--rebalance`` spec grammar round-trips and validates;
* the planner is a pure, deterministic function of the supply census
  and the fitted demand rates — surplus zones donate, deficit zones
  receive, caps and in-flight credits are honoured;
* a fleet parked since t=0 is matchable and counted by the first
  census without any idle announcement (``register_fleet`` indexed it);
* rebalanced runs are deterministic (double run and the streaming
  façade agree bit-for-bit), a disabled policy leaves the run on the
  pre-rebalancing code path, and the request accounting closes with
  cruises in flight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.demand.prediction import DemandPredictor
from repro.fleet.rebalance import (
    RebalanceMove,
    RebalanceSpec,
    Rebalancer,
    parse_rebalance_spec,
)
from repro.fleet.taxi import Taxi, TaxiRoute
from repro.sim.engine import Simulator

from tests.conftest import make_request
from tests.test_runner_parallel import decision_fingerprint


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestRebalanceSpec:
    def test_parse_full_grammar(self):
        spec = parse_rebalance_spec(
            "cadence_s=60,lead_s=240,max_moves=4,min_surplus=2,max_cruise_s=600"
        )
        assert spec == RebalanceSpec(
            cadence_s=60.0, lead_s=240.0, max_moves=4, min_surplus=2, max_cruise_s=600.0
        )
        assert spec.enabled

    @pytest.mark.parametrize("text", ["", "on", "default", " ON "])
    def test_words_for_default_enabled(self, text):
        assert parse_rebalance_spec(text) == RebalanceSpec()
        assert parse_rebalance_spec(text).enabled

    def test_off_disables(self):
        spec = parse_rebalance_spec("off")
        assert not spec.enabled

    def test_zero_moves_disables(self):
        assert not RebalanceSpec(max_moves=0).enabled
        assert not RebalanceSpec(cadence_s=0.0).enabled

    @pytest.mark.parametrize(
        "text",
        ["cadence", "tempo=9", "cadence_s=fast", "max_moves=2.5", "cadence_s=60,cadence_s=90"],
    )
    def test_parse_rejects_bad_entries(self, text):
        with pytest.raises(ValueError):
            parse_rebalance_spec(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cadence_s": -1.0},
            {"lead_s": -1.0},
            {"max_moves": -1},
            {"min_surplus": -1},
            {"max_cruise_s": 0.0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            RebalanceSpec(**kwargs)


# ----------------------------------------------------------------------
# the planner (pure function of census + rates)
# ----------------------------------------------------------------------
class TestPlanner:
    @pytest.fixture(scope="class")
    def geometry(self, small_net, small_engine, small_landmarks):
        return small_net, small_engine, small_landmarks

    def make(self, geometry, hot, spec=None, cold_rate=0.0):
        """A rebalancer whose predicted demand is concentrated on ``hot``."""
        net, engine, landmarks = geometry
        rates = np.full((landmarks.num_partitions, 24), cold_rate)
        for z, r in hot.items():
            rates[z, :] = r
        return Rebalancer(
            spec or RebalanceSpec(),
            predictor=DemandPredictor(rates),
            landmarks=landmarks,
            engine=engine,
            network=net,
        )

    def test_no_demand_no_moves(self, geometry):
        rb = self.make(geometry, hot={})
        assert rb.plan_moves({0: [1, 2, 3]}, {}, now=0.0) == []

    def test_no_parked_no_moves(self, geometry):
        rb = self.make(geometry, hot={4: 10.0})
        assert rb.plan_moves({}, {}, now=0.0) == []

    def test_surplus_flows_to_deficit(self, geometry):
        rb = self.make(geometry, hot={4: 10.0})
        moves = rb.plan_moves({0: [7, 8, 9, 10]}, {}, now=0.0)
        assert moves, "all demand in partition 4, all taxis in 0: expected moves"
        assert all(m.source == 0 and m.target == 4 for m in moves)
        assert len({m.taxi_id for m in moves}) == len(moves)
        assert {m.taxi_id for m in moves} <= {7, 8, 9, 10}

    def test_max_moves_cap(self, geometry):
        rb = self.make(geometry, hot={4: 10.0}, spec=RebalanceSpec(max_moves=2))
        supply = {0: list(range(20))}
        assert len(rb.plan_moves(supply, {}, now=0.0)) <= 2

    def test_in_flight_credit_prevents_overshoot(self, geometry):
        # Demand splits evenly between zones 0 and 4; the cruises
        # already heading to 4 exceed its share of the pool, so zone 4
        # must not receive more — and zone 0's own deficit has no
        # donor partitions (its parked taxis are all it has).
        rb = self.make(geometry, hot={0: 10.0, 4: 10.0})
        supply = {0: [1, 2, 3]}
        assert rb.plan_moves(supply, {4: 50}, now=0.0) == []
        # Without the credit the same census would move taxis to 4.
        assert rb.plan_moves(supply, {}, now=0.0) != []

    def test_max_cruise_s_fences_far_donors(self, geometry):
        rb = self.make(geometry, hot={4: 10.0}, spec=RebalanceSpec(max_cruise_s=1e-6))
        assert rb.plan_moves({0: [1, 2, 3, 4]}, {}, now=0.0) == []

    def test_min_surplus_zero_donates_only_parked_taxis(self, geometry):
        # Shrunk from ``--rebalance min_surplus=0``: every empty
        # partition with target 0 used to compute one spare taxi, become
        # a donor with no taxis and raise IndexError once it was the
        # nearest donor left.
        rb = self.make(geometry, hot={4: 10.0}, spec=RebalanceSpec(min_surplus=0))
        moves = rb.plan_moves({0: [1, 2, 3]}, {}, now=0.0)
        assert [(m.taxi_id, m.source, m.target) for m in moves] == [
            (1, 0, 4), (2, 0, 4), (3, 0, 4)
        ]

    def test_deterministic(self, geometry):
        rb = self.make(geometry, hot={4: 10.0, 7: 3.0}, cold_rate=0.5)
        supply = {0: [3, 1, 2], 2: [9, 8], 5: [11]}
        first = rb.plan_moves(supply, {7: 1}, now=0.0)
        for _ in range(3):
            assert rb.plan_moves(supply, {7: 1}, now=0.0) == first

    def test_move_is_frozen_record(self, geometry):
        move = RebalanceMove(taxi_id=1, source=0, target=4, cost_s=12.5)
        with pytest.raises(AttributeError):
            move.taxi_id = 2


class TestCruiseRoute:
    def test_route_reaches_landmark(self, small_net, small_engine, small_landmarks):
        rb = Rebalancer(
            RebalanceSpec(),
            predictor=DemandPredictor(np.zeros((small_landmarks.num_partitions, 24))),
            landmarks=small_landmarks,
            engine=small_engine,
            network=small_net,
        )
        target_z = small_landmarks.num_partitions - 1
        landmark = small_landmarks.landmark(target_z)
        start = 0 if landmark != 0 else 1
        route = rb.cruise_route(start, 100.0, target_z)
        assert isinstance(route, TaxiRoute)
        assert route.stop_positions == []
        assert route.nodes[0] == start
        assert route.nodes[-1] == landmark
        assert route.times[0] == 100.0
        assert all(b >= a for a, b in zip(route.times, route.times[1:]))

    def test_already_there_is_none(self, small_net, small_engine, small_landmarks):
        rb = Rebalancer(
            RebalanceSpec(),
            predictor=DemandPredictor(np.zeros((small_landmarks.num_partitions, 24))),
            landmarks=small_landmarks,
            engine=small_engine,
            network=small_net,
        )
        z = 0
        assert rb.cruise_route(small_landmarks.landmark(z), 0.0, z) is None


# ----------------------------------------------------------------------
# the cruising property (repositioning plans are stop-less)
# ----------------------------------------------------------------------
class TestCruisingProperty:
    def test_parked_is_not_cruising(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        assert taxi.idle and not taxi.cruising

    def test_stopless_plan_is_cruising_and_idle(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        route = TaxiRoute(nodes=[0, 1, 2], times=[0.0, 10.0, 20.0], stop_positions=[])
        taxi.set_plan([], route)
        assert taxi.cruising and taxi.idle
        # Consuming the whole route parks the taxi again.
        taxi.advance(25.0)
        assert not taxi.cruising
        assert taxi.loc == 2


# ----------------------------------------------------------------------
# a fleet parked since t=0 needs no announcement: register_fleet indexed it
# ----------------------------------------------------------------------
class TestParkedSinceStart:
    def test_untouched_fleet_is_matchable_and_censused(self, test_scenario):
        policy = test_scenario.rebalance_policy(REB_SPEC)
        censuses: list[list[int]] = []
        plan_moves = policy.plan_moves

        def spy(supply, in_flight, now):
            censuses.append(sorted(tid for tids in supply.values() for tid in tids))
            return plan_moves(supply, in_flight, now)

        policy.plan_moves = spy
        fleet = test_scenario.make_fleet(8, seed=1)
        origin = fleet[3].loc
        destination = (origin + 40) % test_scenario.network.num_vertices
        hail = make_request(
            request_id=1, release_time=30.0, origin=origin, destination=destination,
            direct_cost=test_scenario.engine.cost(origin, destination),
        )
        sim = Simulator(test_scenario.make_scheme("mt-share"), fleet, [hail], rebalance=policy)
        m = sim.run()
        # No taxi has moved or been re-indexed since register_fleet, yet
        # the first request is matched and the first census counts every
        # taxi still parked.
        assert m.served_online == 1
        winner = sim.log.trips[1].taxi_id
        assert censuses[0] == sorted(t.taxi_id for t in fleet if t.taxi_id != winner)


# ----------------------------------------------------------------------
# engine integration and determinism
# ----------------------------------------------------------------------
REB_SPEC = "cadence_s=120,max_moves=6"


def _run(scenario, rebalance, num_taxis=25, requests=None):
    scheme = scenario.make_scheme("mt-share")
    sim = Simulator(
        scheme,
        scenario.make_fleet(num_taxis, seed=1),
        requests if requests is not None else scenario.requests(),
        rebalance=scenario.rebalance_policy(rebalance) if isinstance(rebalance, str) else rebalance,
    )
    return sim.run()


class TestEngineIntegration:
    def test_counters_and_stage_present(self, test_scenario):
        m = _run(test_scenario, REB_SPEC)
        assert m.counters.get("rebalance.ticks", 0) > 0
        assert m.counters.get("rebalance.moves", 0) > 0
        assert "rebalance.plan" in m.stages
        assert m.stages["rebalance.plan"]["count"] == m.counters["rebalance.ticks"]
        # Every installed cruise reaches exactly one terminal account.
        moves = m.counters["rebalance.moves"]
        terminal = (
            m.counters.get("rebalance.arrived", 0)
            + m.counters.get("rebalance.abandoned", 0)
            + m.counters.get("rebalance.broken", 0)
        )
        assert terminal <= moves
        m.check_balance()

    def test_off_spec_resolves_to_none(self, test_scenario):
        assert test_scenario.rebalance_policy("off") is None
        assert test_scenario.rebalance_policy(None) is None

    def test_disabled_policy_is_plain_run(self, test_scenario):
        plain = _run(test_scenario, None)
        disabled = Rebalancer(
            RebalanceSpec(cadence_s=0.0),
            predictor=test_scenario.demand_predictor(test_scenario.partitioning()),
            landmarks=test_scenario.landmark_graph(),
            engine=test_scenario.engine,
            network=test_scenario.network,
        )
        m = _run(test_scenario, disabled)
        assert decision_fingerprint(m) == decision_fingerprint(plain)
        assert not any(k.startswith("rebalance") for k in m.counters)

    def test_double_run_identical(self, test_scenario):
        a = _run(test_scenario, REB_SPEC)
        b = _run(test_scenario, REB_SPEC)
        assert decision_fingerprint(a) == decision_fingerprint(b)

    def test_streaming_matches_batch(self, test_scenario):
        batch = _run(test_scenario, REB_SPEC)
        scheme = test_scenario.make_scheme("mt-share")
        sim = Simulator(
            scheme,
            test_scenario.make_fleet(25, seed=1),
            [],
            rebalance=test_scenario.rebalance_policy(REB_SPEC),
        )
        sim.stream_begin()
        for request in test_scenario.requests():
            sim.stream_submit(request)
        streamed = sim.stream_finish()
        assert decision_fingerprint(streamed) == decision_fingerprint(batch)

    def test_surge_gate_serves_no_fewer_than_reactive(self, test_scenario):
        # ``test_spec`` is the commute-surge cell: a one-way morning
        # peak against a deliberately tight 20-taxi fleet, so the
        # supply/demand imbalance bites and repositioning has to pay.
        off = _run(test_scenario, None, num_taxis=20)
        on = _run(test_scenario, REB_SPEC, num_taxis=20)
        assert on.counters.get("rebalance.moves", 0) > 0
        assert on.served >= off.served

    @pytest.mark.parametrize("scheme_name", ["no-sharing", "t-share", "pgreedydp", "window-lap"])
    def test_all_schemes_tolerate_cruises(self, test_scenario, scheme_name):
        scheme = test_scenario.make_scheme(scheme_name)
        m = Simulator(
            scheme,
            test_scenario.make_fleet(25, seed=1),
            test_scenario.requests(),
            rebalance=test_scenario.rebalance_policy(REB_SPEC),
        ).run()
        m.check_balance()
        assert m.counters.get("rebalance.ticks", 0) > 0
