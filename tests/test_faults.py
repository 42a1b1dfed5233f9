"""Fault-injection layer tests (repro.faults; docs/ROBUSTNESS.md).

Covers the spec grammar, plan determinism, the taxi-level fault
primitives, the engine's recovery policy on engineered micro-scenarios
(breakdown -> continuation, pre-pickup cancellation, zonal shock), and
the two run-level guarantees: faulted runs are deterministic for a
given fault seed, and the request-accounting identity closes under
churn for every scheme.  The session-wide conftest fixture arms the
runtime contracts, so every simulation here also exercises the
schedule/clock/accounting invariants.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.contracts import ContractViolation
from repro.config import SystemConfig
from repro.baselines.nosharing import NoSharing
from repro.core.mtshare import MTShare
from repro.core.payment import PaymentModel
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    RequestCancellation,
    ShockWindow,
    TaxiBreakdown,
    build_fault_plan,
    parse_fault_spec,
)
from repro.faults.recovery import CONTINUATION_ID_BASE, continuation_request
from repro.fleet.schedule import dropoff, pickup, remove_request_stops
from repro.fleet.taxi import Taxi, TaxiError, TaxiRoute
from repro.obs import Instrumentation
from repro.sim.engine import Simulator
from tests.conftest import build_route, make_request
from tests.oracles import FullSweepSimulator
from tests.test_obs import ListTrace


class TestFaultSpec:
    def test_parse_full_grammar(self):
        spec = parse_fault_spec(
            "seed=3,breakdown_rate=0.05,cancel_rate=0.1,shock_windows=2,"
            "shock_delay_s=120,shock_duration_s=600,shock_radius_frac=0.25,"
            "continuation_rho=2.0,continuation_wait_s=900"
        )
        assert spec.seed == 3
        assert spec.breakdown_rate == 0.05
        assert spec.cancel_rate == 0.1
        assert spec.shock_windows == 2
        assert spec.shock_delay_s == 120.0
        assert spec.continuation_rho == 2.0
        assert spec.enabled

    def test_parse_empty_is_all_off(self):
        spec = parse_fault_spec("")
        assert spec == FaultSpec()
        assert not spec.enabled

    def test_seed_alone_is_disabled(self):
        assert not parse_fault_spec("seed=42").enabled

    @pytest.mark.parametrize(
        "text",
        ["breakdown", "rate=0.1", "breakdown_rate=lots", "breakdown_rate=1.5", "seed=1,seed=2"],
    )
    def test_parse_rejects_bad_entries(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cancel_rate": -0.1},
            {"shock_windows": -1},
            {"shock_delay_s": -1.0},
            {"continuation_rho": 0.5},
            {"continuation_wait_s": -1.0},
            # NaN fails every ``< 0`` check, so these used to pass.
            {"shock_radius_frac": math.nan},
            {"shock_delay_s": math.nan},
            {"shock_delay_s": math.inf},
            {"shock_duration_s": math.inf},
            {"continuation_rho": math.nan},
            {"continuation_wait_s": math.inf},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)


class TestFaultPlan:
    @pytest.fixture(scope="class")
    def workload(self, test_scenario):
        return test_scenario.make_fleet(10, seed=1), test_scenario.requests()

    def test_same_spec_same_plan(self, test_scenario, workload):
        taxis, requests = workload
        spec = FaultSpec(seed=5, breakdown_rate=0.3, cancel_rate=0.2, shock_windows=2)
        a = build_fault_plan(spec, taxis, requests, test_scenario.network)
        b = build_fault_plan(spec, taxis, requests, test_scenario.network)
        assert a.fingerprint() == b.fingerprint()
        assert a.num_events > 0

    def test_different_seed_different_plan(self, test_scenario, workload):
        taxis, requests = workload
        plans = [
            build_fault_plan(
                FaultSpec(seed=s, breakdown_rate=0.5, cancel_rate=0.5),
                taxis, requests, test_scenario.network,
            )
            for s in (1, 2)
        ]
        assert plans[0].fingerprint() != plans[1].fingerprint()

    def test_events_sorted_and_in_range(self, test_scenario, workload):
        taxis, requests = workload
        spec = FaultSpec(seed=9, breakdown_rate=0.5, cancel_rate=0.5, shock_windows=3)
        plan = build_fault_plan(spec, taxis, requests, test_scenario.network)
        times = [e.time for e in plan.breakdowns]
        assert times == sorted(times)
        cancel_times = [e.time for e in plan.cancellations]
        assert cancel_times == sorted(cancel_times)
        by_id = {r.request_id: r for r in requests}
        for event in plan.cancellations:
            request = by_id[event.request_id]
            # Strictly after release and inside the waiting window.
            assert request.release_time < event.time
            assert event.time <= request.release_time + request.max_wait + 1e-9
        for window in plan.shocks:
            assert window.end == window.start + spec.shock_duration_s
            assert window.delay_s == spec.shock_delay_s

    def test_all_off_spec_builds_empty_plan(self, test_scenario, workload):
        taxis, requests = workload
        plan = build_fault_plan(FaultSpec(seed=1), taxis, requests, test_scenario.network)
        assert plan.empty
        assert plan.num_events == 0

    def test_scenario_fault_plan_helper(self, test_scenario, workload):
        taxis, requests = workload
        assert test_scenario.fault_plan(None, taxis, requests) is None
        assert test_scenario.fault_plan("seed=4", taxis, requests) is None
        plan = test_scenario.fault_plan("seed=4,breakdown_rate=0.5", taxis, requests)
        assert isinstance(plan, FaultPlan)
        assert plan.breakdowns
        with pytest.raises(TypeError):
            test_scenario.fault_plan(123, taxis, requests)


def straight_route(nodes, start_time, per_hop, stop_positions=()):
    times = [start_time + i * per_hop for i in range(len(nodes))]
    return TaxiRoute(nodes=list(nodes), times=times, stop_positions=list(stop_positions))


class TestTaxiFaultPrimitives:
    def test_break_down_sheds_commitments(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r0 = make_request(request_id=0, origin=0, destination=8,
                          direct_cost=tiny_engine.cost(0, 8), rho=2.5)
        r1 = make_request(request_id=1, origin=1, destination=7,
                          direct_cost=tiny_engine.cost(1, 7), rho=2.5)
        stops = [pickup(r0), pickup(r1), dropoff(r1), dropoff(r0)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.assign(r0)
        taxi.assign(r1)
        taxi.set_plan(stops, route)
        # Advance far enough to pick up r0 only (it boards at the start).
        taxi.advance(1e-6)
        assert taxi.occupancy == 1

        onboard, assigned = taxi.break_down()
        assert [r.request_id for r in onboard] == [0]
        assert [r.request_id for r in assigned] == [1]
        assert taxi.out_of_service
        assert taxi.idle and taxi.occupancy == 0 and taxi.committed == 0
        assert taxi.route.empty and taxi.pending_stops() == []

    def test_out_of_service_rejects_new_work(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.break_down()
        r = make_request()
        with pytest.raises(TaxiError):
            taxi.assign(r)
        with pytest.raises(TaxiError):
            taxi.set_plan([], TaxiRoute())

    def test_unassign(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request(num_passengers=2)
        taxi.assign(r)
        assert taxi.committed == 2
        taxi.unassign(r)
        assert taxi.committed == 0
        with pytest.raises(TaxiError):
            taxi.unassign(r)

    def test_apply_delay_shifts_remaining_route(self):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.set_plan([], straight_route([0, 1, 2, 3], 0.0, 10.0))
        taxi.advance(15.0)  # cursor past nodes 0 and 1
        assert taxi.apply_delay(100.0)
        assert taxi.route.times == [0.0, 10.0, 120.0, 130.0]

    def test_apply_delay_noop_cases(self):
        idle = Taxi(taxi_id=0, capacity=3, loc=0)
        assert not idle.apply_delay(60.0)  # no route at all
        cruising = Taxi(taxi_id=1, capacity=3, loc=0)
        cruising.set_plan([], straight_route([0, 1], 0.0, 10.0))
        assert not cruising.apply_delay(0.0)  # non-positive delay
        cruising.advance(1e9)  # route fully consumed
        assert not cruising.apply_delay(60.0)

    def test_remove_request_stops(self):
        r0 = make_request(request_id=0)
        r1 = make_request(request_id=1)
        stops = [pickup(r0), pickup(r1), dropoff(r0), dropoff(r1)]
        remaining = remove_request_stops(stops, 0)
        assert [s.request.request_id for s in remaining] == [1, 1]
        assert remove_request_stops(stops, 99) == stops


class TestContinuationRequest:
    def test_builds_valid_request(self, tiny_engine):
        original = make_request(origin=0, destination=8,
                                direct_cost=tiny_engine.cost(0, 8), rho=1.3,
                                num_passengers=2)
        cont = continuation_request(
            tiny_engine, original, CONTINUATION_ID_BASE, origin=4, now=500.0,
            rho=1.5, wait_s=600.0,
        )
        assert cont is not None
        assert cont.request_id == CONTINUATION_ID_BASE
        assert cont.origin == 4
        assert cont.destination == original.destination
        assert cont.release_time == 500.0
        assert cont.num_passengers == 2
        assert not cont.offline
        assert cont.direct_cost == pytest.approx(tiny_engine.cost(4, 8))
        # Validity: the deadline leaves a positive waiting budget.
        assert cont.deadline >= cont.release_time + cont.direct_cost + 600.0 - 1e-9

    def test_unreachable_vertex_returns_none(self):
        class DeadEngine:
            def cost(self, u, v):
                return math.inf

        original = make_request(origin=0, destination=8)
        assert continuation_request(
            DeadEngine(), original, CONTINUATION_ID_BASE, 4, 0.0, 1.5, 600.0
        ) is None


# ----------------------------------------------------------------------
# engineered micro-scenarios on the 10x10 city
# ----------------------------------------------------------------------
@pytest.fixture()
def micro(small_net, small_engine):
    """A NoSharing dispatcher over the small city with a wide search range."""
    width = small_net.xy[:, 0].max() - small_net.xy[:, 0].min()
    config = SystemConfig(search_range_m=float(width) * 2.0)
    return NoSharing(small_net, small_engine, config)


def _trip_request(engine, request_id, origin, destination, release_time=0.0,
                  rho=3.0):
    return make_request(
        request_id=request_id, release_time=release_time, origin=origin,
        destination=destination, direct_cost=engine.cost(origin, destination),
        rho=rho,
    )


def _plan(breakdowns=(), cancellations=(), shocks=(), **spec_kwargs):
    spec_kwargs.setdefault("breakdown_rate", 1.0 if breakdowns else 0.0)
    spec_kwargs.setdefault("cancel_rate", 1.0 if cancellations else 0.0)
    return FaultPlan(
        spec=FaultSpec(**spec_kwargs),
        breakdowns=tuple(breakdowns),
        cancellations=tuple(cancellations),
        shocks=tuple(shocks),
    )


class TestBreakdownRecovery:
    def test_onboard_passenger_continues_on_second_taxi(self, micro, small_engine):
        # Taxi 0 parks at the request origin and wins the match; taxi 1
        # waits at the far corner and must pick up the continuation.
        request = _trip_request(small_engine, 0, origin=0, destination=99)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0),
                 Taxi(taxi_id=1, capacity=3, loc=99)]
        plan = _plan(breakdowns=[TaxiBreakdown(time=120.0, taxi_id=0)],
                     continuation_wait_s=3600.0)
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()

        assert m.breakdowns == 1
        assert m.continuations == 1
        assert m.reassigned == 1
        assert m.stranded == 0
        assert m.served_online == 1  # the root request keeps its bucket
        assert fleet[0].out_of_service
        # The continuation was delivered by the surviving taxi.
        cont_trips = [t for t in sim.log.trips.values()
                      if t.request.request_id >= CONTINUATION_ID_BASE]
        assert len(cont_trips) == 1
        assert cont_trips[0].taxi_id == 1
        assert cont_trips[0].completed
        assert cont_trips[0].request.destination == request.destination
        assert m.counters.get("fault.breakdowns") == 1
        assert m.counters.get("fault.continuations") == 1

    def test_no_spare_taxi_strands_passenger(self, micro, small_engine):
        request = _trip_request(small_engine, 0, origin=0, destination=99)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0)]
        plan = _plan(breakdowns=[TaxiBreakdown(time=120.0, taxi_id=0)])
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()

        assert m.breakdowns == 1
        assert m.stranded_online == 1
        assert m.served_online == 0
        assert m.reassigned == 0
        m.check_balance()

    def test_assigned_request_redispatches(self, micro, small_engine):
        # Taxi 0 is nearer and wins; it dies before reaching the pick-up
        # (the first fault boundary is the t=60 drain step, well before
        # its ~2-hop approach ends), so the request is re-dispatched
        # as-is to taxi 1.
        request = _trip_request(small_engine, 0, origin=11, destination=99,
                                rho=6.0)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0),
                 Taxi(taxi_id=1, capacity=3, loc=55)]
        plan = _plan(breakdowns=[TaxiBreakdown(time=30.0, taxi_id=0)])
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()

        assert m.breakdowns == 1
        assert m.reassigned == 1
        assert m.continuations == 0  # nobody was aboard yet
        assert m.served_online == 1
        trip = sim.log.trips[0]
        assert trip.taxi_id == 1
        assert trip.completed

    def test_breakdown_of_idle_taxi_only_counts(self, micro, small_engine):
        request = _trip_request(small_engine, 0, origin=0, destination=9)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0),
                 Taxi(taxi_id=1, capacity=3, loc=55)]
        # Taxi 1 never gets work; its breakdown must not touch accounting.
        plan = _plan(breakdowns=[TaxiBreakdown(time=60.0, taxi_id=1)])
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()
        assert m.breakdowns == 1
        assert m.served_online == 1
        assert m.stranded == 0 and m.reassigned == 0
        m.check_balance()


class TestBreakdownOnRebalanceCruise:
    """A breakdown mid-repositioning-cruise (ISSUE/PR 10 satellite).

    A cruising taxi carries nobody and owes nobody: its breakdown must
    not settle a phantom payment episode, must evict the taxi from
    every supply index (it was *idle*, hence indexed), and must retire
    the in-flight destination so later rebalance ticks do not credit a
    dead cruise.
    """

    def test_cruising_breakdown_is_clean(self, test_scenario):
        scheme = test_scenario.make_scheme("mt-share")
        fleet = test_scenario.make_fleet(2, seed=1)
        rebalance = test_scenario.rebalance_policy("on")
        sim = Simulator(scheme, fleet, [], payment=PaymentModel(),
                        rebalance=rebalance)
        sim.stream_begin()
        taxi = fleet[0]
        # Steer taxi 0 toward some other partition's landmark, exactly
        # as the rebalance tick handler would.
        home = rebalance.partition_of(taxi.loc)
        target = next(
            z for z in range(test_scenario.landmark_graph().num_partitions)
            if z != home and rebalance.cruise_route(taxi.loc, 0.0, z) is not None
        )
        taxi.set_plan([], rebalance.cruise_route(taxi.loc, 0.0, target))
        sim._rebalance_dest[taxi.taxi_id] = target
        scheme.on_taxi_replanned(taxi, 0.0)
        assert taxi.cruising

        sim._handle_breakdown(taxi, 30.0)

        assert taxi.out_of_service and taxi.route.empty
        assert sim._rebalance_dest == {}
        # Nobody was aboard or assigned: no salvage, no stranding.
        m = sim.stream_finish()
        assert m.breakdowns == 1
        assert m.continuations == 0 and m.reassigned == 0 and m.stranded == 0
        # No phantom episode settlement: the payment aggregates never moved.
        assert m.regular_fares == 0.0 and m.shared_fares == 0.0
        assert m.unsettled_episodes == 0
        assert m.counters.get("rebalance.broken") == 1
        # The partition index no longer advertises the dead taxi's supply.
        index = scheme.partition_index
        assert index.arrivals.shape[0] == test_scenario.landmark_graph().num_partitions
        assert all(math.isnan(a) for a in index.arrivals[:, index.column_of[taxi.taxi_id]])
        m.check_balance()

    def test_chaos_with_rebalancing_is_deterministic(self, test_scenario):
        def one_run():
            scheme = test_scenario.make_scheme("mt-share")
            fleet = test_scenario.make_fleet(25, seed=1)
            requests = test_scenario.requests()
            plan = test_scenario.fault_plan(
                "seed=5,breakdown_rate=0.3,cancel_rate=0.2,shock_windows=1",
                fleet, requests,
            )
            return Simulator(
                scheme, fleet, requests, payment=PaymentModel(), faults=plan,
                rebalance=test_scenario.rebalance_policy("cadence_s=120,max_moves=6"),
            ).run()

        from tests.test_runner_parallel import decision_fingerprint

        a = one_run()
        b = one_run()
        assert decision_fingerprint(a) == decision_fingerprint(b)
        assert a.breakdowns > 0
        assert a.counters.get("rebalance.ticks", 0) > 0
        a.check_balance()

    def test_a_breakdown_that_keeps_the_taxi_listed_fails_the_run(
        self, test_scenario, monkeypatch
    ):
        """``MTShare.on_taxi_breakdown`` exists to delist the dead taxi:
        skip that eviction and a contracts-armed faulted run fails."""
        monkeypatch.setattr(
            MTShare, "on_taxi_breakdown",
            lambda scheme, taxi, now: scheme.cluster_index.update_taxi(taxi.taxi_id, None),
        )
        fleet = test_scenario.make_fleet(25, seed=1)
        requests = test_scenario.requests()
        plan = test_scenario.fault_plan("seed=5,breakdown_rate=0.3", fleet, requests)
        sim = Simulator(test_scenario.make_scheme("mt-share"), fleet, requests, faults=plan)
        with pytest.raises(ContractViolation, match="out of service"):
            sim.run()


    def test_a_breakdown_that_keeps_the_taxi_clustered_fails_the_run(
        self, test_scenario, monkeypatch
    ):
        """``on_taxi_breakdown``'s ``update_taxi(None)`` exists to clear
        the dead taxi's direction: skip it and a contracts-armed faulted
        run fails."""
        monkeypatch.setattr(
            MTShare, "on_taxi_breakdown",
            lambda scheme, taxi, now: scheme.partition_index.remove_taxi(taxi.taxi_id),
        )
        fleet = test_scenario.make_fleet(25, seed=1)
        requests = test_scenario.requests()
        plan = test_scenario.fault_plan("seed=5,breakdown_rate=0.3", fleet, requests)
        sim = Simulator(test_scenario.make_scheme("mt-share"), fleet, requests, faults=plan)
        with pytest.raises(ContractViolation, match="skipped the cluster eviction"):
            sim.run()


class TestCancellation:
    def test_pre_pickup_cancel_frees_the_taxi(self, micro, small_engine):
        # The taxi starts far away, so the cancel at t=30 lands before
        # the pick-up; the plan is torn down and the taxi parks.
        request = _trip_request(small_engine, 0, origin=55, destination=99,
                                rho=6.0)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0)]
        plan = _plan(cancellations=[RequestCancellation(time=30.0, request_id=0)])
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()

        assert m.cancelled_online == 1
        assert m.served_online == 0
        assert m.completed == 0
        assert fleet[0].idle and not fleet[0].assigned
        assert not fleet[0].out_of_service
        m.check_balance()

    def test_post_pickup_cancel_is_too_late(self, micro, small_engine):
        request = _trip_request(small_engine, 0, origin=0, destination=99)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0)]
        # Passengers board immediately at t=0; a cancel at t=60 is a no-op.
        plan = _plan(cancellations=[RequestCancellation(time=60.0, request_id=0)])
        sim = Simulator(micro, fleet, [request], payment=PaymentModel(), faults=plan)
        m = sim.run()

        assert m.cancelled == 0
        assert m.served_online == 1
        assert m.completed == 1

    def test_cancel_of_unmatched_request_is_noop(self, micro, small_engine):
        request = _trip_request(small_engine, 0, origin=0, destination=99)
        plan = _plan(cancellations=[RequestCancellation(time=30.0, request_id=0)])
        sim = Simulator(micro, [], [request], payment=PaymentModel(), faults=plan)
        m = sim.run()
        assert m.unserved_online == 1
        assert m.cancelled == 0
        m.check_balance()


class TestShockWindows:
    def _run(self, micro, small_engine, small_net, shocks):
        request = _trip_request(small_engine, 0, origin=0, destination=99)
        fleet = [Taxi(taxi_id=0, capacity=3, loc=0)]
        sim = Simulator(
            micro, fleet, [request], payment=PaymentModel(),
            faults=_plan(shocks=shocks, shock_windows=1) if shocks else None,
        )
        m = sim.run()
        return m, sim.log.trips[0]

    def test_shock_delays_the_dropoff(self, micro, small_engine, small_net):
        xy = small_net.xy
        everywhere = ShockWindow(
            start=0.0, end=3600.0,
            cx=float(xy[:, 0].mean()), cy=float(xy[:, 1].mean()),
            radius_m=1e9, delay_s=240.0,
        )
        plain, plain_trip = self._run(micro, small_engine, small_net, None)
        shocked, shocked_trip = self._run(micro, small_engine, small_net, [everywhere])
        assert shocked.shock_delays == 1
        assert shocked_trip.dropoff_time == pytest.approx(
            plain_trip.dropoff_time + 240.0
        )
        assert shocked.counters.get("fault.shock_delays") == 1

    def test_disc_outside_taxi_is_untouched(self, micro, small_engine, small_net):
        far = ShockWindow(start=0.0, end=3600.0, cx=-1e7, cy=-1e7,
                          radius_m=10.0, delay_s=240.0)
        m, trip = self._run(micro, small_engine, small_net, [far])
        assert m.shock_delays == 0
        assert trip.completed


@pytest.mark.parametrize("cls", [Simulator, FullSweepSimulator], ids=["production", "oracle"])
class TestShockRescan:
    """Which taxis a shock window looks at, and when.

    Production scans the whole fleet at a window's first boundary and
    afterwards only the taxis re-keyed since the previous boundary
    (``Simulator._apply_shock``); the oracle scans everybody every time.
    Each rule below must come out the same both ways.  The taxi needs
    about 36 s per 150 m hop, and after the one release the boundaries
    are the 60 s drain steps.
    """

    def _run(self, cls, micro, small_engine, trips, shocks):
        requests = [_trip_request(small_engine, rid, origin, destination, release)
                    for rid, (origin, destination, release) in enumerate(trips)]
        trace = ListTrace()
        sim = cls(
            micro, [Taxi(taxi_id=0, capacity=3, loc=0)], requests,
            payment=PaymentModel(),
            faults=_plan(shocks=shocks, shock_windows=len(shocks)) if shocks else None,
            obs=Instrumentation(trace=trace),
        )
        m = sim.run()
        m.check_balance()
        events = [(e["t"], e["window"]) for e in trace if e["ev"] == "shock"]
        return events, [trip.dropoff_time for _, trip in sorted(sim.log.trips.items())]

    @staticmethod
    def _everywhere(small_net, start, delay_s=240.0):
        xy = small_net.xy
        return ShockWindow(start=start, end=3600.0, cx=float(xy[:, 0].mean()),
                           cy=float(xy[:, 1].mean()), radius_m=1e9, delay_s=delay_s)

    def test_parked_taxi_matched_later_is_shocked_at_the_next_boundary(
            self, cls, micro, small_engine, small_net):
        # The window opens at the t=100 release, before the match: the
        # taxi is parked with no route, so that first full scan passes
        # it over.  The match re-keys it; the t=160 drain step shocks it.
        trips = [(0, 99, 100.0)]
        _, plain = self._run(cls, micro, small_engine, trips, [])
        events, dropoffs = self._run(cls, micro, small_engine, trips,
                                     [self._everywhere(small_net, 0.0)])
        assert events == [(160.0, 0)]
        assert dropoffs == [pytest.approx(plain[0] + 240.0)]

    def test_taxi_that_drives_into_the_disc_is_shocked(
            self, cls, micro, small_engine, small_net):
        # The disc covers the half of the trip nearest vertex 99; the
        # taxi starts at vertex 0, outside it, when the window opens.
        xy = small_net.xy
        gap = float(((xy[99] - xy[0]) ** 2).sum() ** 0.5)
        disc = ShockWindow(start=0.0, end=3600.0, cx=float(xy[99, 0]),
                           cy=float(xy[99, 1]), radius_m=gap / 2.0, delay_s=240.0)
        trips = [(0, 99, 0.0)]
        _, plain = self._run(cls, micro, small_engine, trips, [])
        events, dropoffs = self._run(cls, micro, small_engine, trips, [disc])
        assert len(events) == 1 and events[0][0] > 60.0  # not on the first step
        assert dropoffs == [pytest.approx(plain[0] + 240.0)]

    def test_rekeyed_taxi_is_not_shocked_twice_in_one_window(
            self, cls, micro, small_engine, small_net):
        # The t=60 release finds the taxi busy and goes unserved; its
        # boundary shocks the taxi.  Then the taxi advances, parks, is
        # matched again at t=1200 and drives a second trip, all inside
        # the same window.
        trips = [(0, 99, 0.0), (50, 55, 60.0), (99, 0, 1200.0)]
        _, plain = self._run(cls, micro, small_engine, trips, [])
        events, dropoffs = self._run(cls, micro, small_engine, trips,
                                     [self._everywhere(small_net, 0.0)])
        assert events == [(60.0, 0)]
        assert dropoffs == [pytest.approx(plain[0] + 240.0), pytest.approx(plain[1])]

    def test_overlapping_windows_shock_the_same_taxi_once_each(
            self, cls, micro, small_engine, small_net):
        # Window 0 shocks the taxi at t=60 and pushes its next vertex
        # ~600 s out, so nothing re-keys it before window 1 opens at the
        # t=240 step: only that window's first-boundary scan can find it.
        trips = [(0, 99, 0.0)]
        _, plain = self._run(cls, micro, small_engine, trips, [])
        events, dropoffs = self._run(cls, micro, small_engine, trips, [
            self._everywhere(small_net, 0.0, delay_s=600.0),
            self._everywhere(small_net, 200.0, delay_s=600.0),
        ])
        assert events == [(60.0, 0), (240.0, 1)]
        assert dropoffs == [pytest.approx(plain[0] + 1200.0)]


# ----------------------------------------------------------------------
# run-level guarantees on the shared scenarios
# ----------------------------------------------------------------------
CHAOS = "seed=7,breakdown_rate=0.3,cancel_rate=0.15,shock_windows=2"

#: Wall-clock-derived summary keys; everything else must match exactly.
MEASURED_KEYS = frozenset(
    {"response_ms", "stage_candidates_ms", "stage_insertion_ms", "stage_planning_ms"}
)


def _run_faulted(scenario, scheme, faults, num_taxis=15):
    requests = scenario.requests()
    fleet = scenario.make_fleet(num_taxis, seed=1)
    plan = scenario.fault_plan(faults, fleet, requests)
    sim = Simulator(
        scenario.make_scheme(scheme), fleet, requests,
        payment=PaymentModel(), faults=plan,
    )
    metrics = sim.run()
    trips = {
        rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
        for rid, t in sim.log.trips.items()
    }
    return metrics, trips


class TestFaultedRuns:
    @pytest.mark.parametrize("name", ["no-sharing", "t-share", "pgreedydp", "mt-share"])
    def test_balance_closes_under_churn(self, test_scenario, name):
        m, _trips = _run_faulted(test_scenario, name, CHAOS)
        assert m.breakdowns > 0
        assert m.cancelled + m.reassigned + m.shock_delays > 0
        m.check_balance()  # served + failed + cancelled + stranded == total

    def test_offline_buckets_close_under_churn(self, test_nonpeak_scenario):
        m, _trips = _run_faulted(test_nonpeak_scenario, "mt-share", CHAOS)
        assert m.breakdowns > 0
        m.check_balance()

    def test_same_fault_seed_same_run(self, test_scenario):
        a_m, a_trips = _run_faulted(test_scenario, "mt-share", CHAOS)
        b_m, b_trips = _run_faulted(test_scenario, "mt-share", CHAOS)
        assert a_trips == b_trips
        a = {k: v for k, v in a_m.summary().items() if k not in MEASURED_KEYS}
        b = {k: v for k, v in b_m.summary().items() if k not in MEASURED_KEYS}
        assert a == b

    def test_different_fault_seed_diverges(self, test_scenario):
        a_m, _ = _run_faulted(test_scenario, "mt-share", CHAOS)
        b_m, _ = _run_faulted(
            test_scenario, "mt-share",
            "seed=8,breakdown_rate=0.3,cancel_rate=0.15,shock_windows=2",
        )
        assert a_m.summary() != b_m.summary()

    def test_empty_plan_is_bit_identical_to_none(self, test_scenario):
        plain_m, plain_trips = _run_faulted(test_scenario, "mt-share", None)
        empty = FaultPlan(spec=FaultSpec(seed=3))
        requests = test_scenario.requests()
        fleet = test_scenario.make_fleet(15, seed=1)
        sim = Simulator(
            test_scenario.make_scheme("mt-share"), fleet, requests,
            payment=PaymentModel(), faults=empty,
        )
        m = sim.run()
        trips = {
            rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
            for rid, t in sim.log.trips.items()
        }
        assert trips == plain_trips
        a = {k: v for k, v in m.summary().items() if k not in MEASURED_KEYS}
        b = {k: v for k, v in plain_m.summary().items() if k not in MEASURED_KEYS}
        assert a == b

    def test_fault_free_metrics_have_zero_fault_buckets(self, test_scenario):
        m, _trips = _run_faulted(test_scenario, "mt-share", None)
        assert m.breakdowns == 0 and m.cancelled == 0 and m.stranded == 0
        assert m.reassigned == 0 and m.shock_delays == 0
        assert m.unsettled_episodes == 0
        assert m.summary()["cancelled"] == 0
