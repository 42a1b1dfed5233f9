"""End-to-end simulator tests: invariants that must hold for every scheme."""

import pytest

from repro.core.payment import PaymentModel
from repro.fleet.schedule import dropoff, pickup
from repro.fleet.taxi import Taxi, TaxiRoute
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.metrics import SimulationMetrics
from tests.conftest import build_route, make_request


SCHEMES = ["no-sharing", "t-share", "pgreedydp", "mt-share"]


@pytest.fixture(scope="module")
def peak_runs(test_scenario):
    """One simulation per scheme on the shared test scenario."""
    runs = {}
    requests = test_scenario.requests()
    for name in SCHEMES:
        sim = Simulator(
            test_scenario.make_scheme(name),
            test_scenario.make_fleet(15, seed=1),
            requests,
            payment=PaymentModel(),
        )
        metrics = sim.run()
        runs[name] = (sim, metrics)
    return runs


class TestInvariants:
    @pytest.mark.parametrize("name", SCHEMES)
    def test_served_bounded_by_requests(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert 0 <= m.served <= m.num_requests

    @pytest.mark.parametrize("name", SCHEMES)
    def test_some_requests_served(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert m.served > 0

    @pytest.mark.parametrize("name", SCHEMES)
    def test_completed_trips_meet_deadlines(self, peak_runs, name):
        sim, _m = peak_runs[name]
        for trip in sim.log.completed():
            assert trip.dropoff_time <= trip.request.deadline + 1e-6
            assert trip.pickup_time <= trip.request.pickup_deadline + 1e-6
            assert trip.pickup_time >= trip.request.release_time - 1e-6

    @pytest.mark.parametrize("name", SCHEMES)
    def test_waiting_and_detour_non_negative(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert all(w >= -1e-9 for w in m.waiting_times_s)
        assert all(d >= 0.0 for d in m.detour_times_s)

    @pytest.mark.parametrize("name", SCHEMES)
    def test_assigned_trips_complete(self, peak_runs, name):
        sim, m = peak_runs[name]
        # Every assignment eventually completes within the drain horizon.
        incomplete = [t for t in sim.log.trips.values() if not t.completed]
        assert len(incomplete) == 0
        assert m.completed == m.served

    @pytest.mark.parametrize("name", SCHEMES)
    def test_response_time_measured(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert len(m.response_times_s) == m.num_online
        assert m.avg_response_ms >= 0.0

    def test_no_sharing_has_zero_detour(self, peak_runs):
        _sim, m = peak_runs["no-sharing"]
        assert m.avg_detour_min == pytest.approx(0.0)

    def test_sharing_serves_at_least_no_sharing(self, peak_runs):
        base = peak_runs["no-sharing"][1].served
        for name in ("t-share", "pgreedydp", "mt-share"):
            assert peak_runs[name][1].served >= base * 0.8

    @pytest.mark.parametrize("name", SCHEMES)
    def test_fleet_ends_idle(self, peak_runs, name):
        sim, _m = peak_runs[name]
        for taxi in sim.fleet.values():
            assert taxi.occupancy == 0
            assert not taxi.assigned

    @pytest.mark.parametrize("name", SCHEMES)
    def test_payment_aggregates_consistent(self, peak_runs, name):
        _sim, m = peak_runs[name]
        if m.regular_fares > 0:
            assert m.shared_fares <= m.regular_fares + 1e-6
            assert m.driver_incomes >= m.route_fares - 1e-6


class TestDeterminism:
    def test_same_seed_same_outcome(self, test_scenario):
        results = []
        for _ in range(2):
            sim = Simulator(
                test_scenario.make_scheme("mt-share"),
                test_scenario.make_fleet(10, seed=2),
                test_scenario.requests(),
            )
            m = sim.run()
            results.append((m.served, tuple(sorted(sim.log.trips))))
        assert results[0] == results[1]


class TestOfflineHandling:
    @pytest.fixture(scope="class")
    def nonpeak_run(self, test_nonpeak_scenario):
        sim = Simulator(
            test_nonpeak_scenario.make_scheme("mt-share-pro"),
            test_nonpeak_scenario.make_fleet(15, seed=1),
            test_nonpeak_scenario.requests(),
        )
        return sim, sim.run()

    def test_offline_requests_counted(self, nonpeak_run):
        _sim, m = nonpeak_run
        assert m.num_offline > 0
        assert m.num_online + m.num_offline == m.num_requests

    def test_offline_can_be_served(self, nonpeak_run):
        _sim, m = nonpeak_run
        assert m.served_offline >= 0
        assert m.served_offline <= m.num_offline

    def test_offline_served_trips_respect_deadlines(self, nonpeak_run):
        sim, _m = nonpeak_run
        for trip in sim.log.completed():
            if trip.request.offline:
                assert trip.pickup_time >= trip.request.release_time - 1e-6
                assert trip.dropoff_time <= trip.request.deadline + 1e-6

    def test_no_redispatch_serves_fewer_or_equal(self, test_nonpeak_scenario):
        requests = test_nonpeak_scenario.requests()
        with_r = Simulator(
            test_nonpeak_scenario.make_scheme("mt-share"),
            test_nonpeak_scenario.make_fleet(15, seed=1),
            requests,
            redispatch_encounters=True,
        ).run()
        without_r = Simulator(
            test_nonpeak_scenario.make_scheme("mt-share"),
            test_nonpeak_scenario.make_fleet(15, seed=1),
            requests,
            redispatch_encounters=False,
        ).run()
        assert without_r.served_offline <= with_r.served_offline

    def test_encounter_radius_zero_still_works(self, test_nonpeak_scenario, monkeypatch):
        monkeypatch.setattr(engine, "ENCOUNTER_RADIUS_M", 0.0)
        m = Simulator(
            test_nonpeak_scenario.make_scheme("mt-share"),
            test_nonpeak_scenario.make_fleet(10, seed=0),
            test_nonpeak_scenario.requests(),
        ).run()
        assert m.served >= 0  # exact-vertex encounters only


class TestRequestAccounting:
    """Regression: every request must land in exactly one outcome bucket.

    Expired offline requests used to vanish silently in the encounter
    scan, leaving ``served + failed`` short of the request total."""

    @pytest.mark.parametrize("name", SCHEMES)
    def test_online_balance(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert m.served_online + m.unserved_online == m.num_online

    @pytest.mark.parametrize("name", SCHEMES)
    def test_offline_balance(self, peak_runs, name):
        _sim, m = peak_runs[name]
        assert m.expired_offline >= 0
        assert (
            m.served_offline + m.expired_offline + m.unserved_offline
            == m.num_offline
        )

    def test_nonpeak_offline_balance(self, test_nonpeak_scenario):
        m = Simulator(
            test_nonpeak_scenario.make_scheme("mt-share"),
            test_nonpeak_scenario.make_fleet(12, seed=4),
            test_nonpeak_scenario.requests(),
        ).run()
        assert (
            m.served_offline + m.expired_offline + m.unserved_offline
            == m.num_offline
        )
        assert m.served_online + m.unserved_online == m.num_online

    def test_check_balance_raises_on_leak(self):
        m = SimulationMetrics(scheme_name="x")
        m.num_online = 2
        m.served_online = 1  # one request unaccounted for
        with pytest.raises(ValueError, match="online"):
            m.check_balance()
        m.unserved_online = 1
        m.check_balance()  # balanced now
        m.num_offline = 3
        m.served_offline = 1
        m.expired_offline = 1
        with pytest.raises(ValueError, match="offline"):
            m.check_balance()
        m.unserved_offline = 1
        m.check_balance()


class TestStopFiringSignal:
    """Regression: ``on_taxi_advanced`` must report true stop firings.

    ``stops_fired`` was computed as ``taxi.idle or ...``, so an idle
    taxi cruising through vertices claimed "stops fired" on every tick
    and triggered needless index refreshes."""

    @staticmethod
    def _route_through(tiny_net, tiny_engine, origin, destination):
        nodes = tiny_engine.path(origin, destination)
        times = [0.0]
        for u, v in zip(nodes, nodes[1:]):
            times.append(times[-1] + tiny_net.path_cost_s([u, v]))
        return nodes, times

    def test_cruise_does_not_fire_stops(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        nodes, times = self._route_through(tiny_net, tiny_engine, 0, 8)
        # A demand-seeking cruise: a concrete route with no stops.
        taxi.set_plan([], TaxiRoute(nodes=nodes, times=times, stop_positions=[]))
        assert taxi.idle  # no pending stops
        traversed = taxi.advance(times[-1] + 1.0)
        assert len(traversed) == len(nodes)  # the taxi really moved
        assert taxi.stops_fired_total == 0  # ... but no stop fired

    def test_stop_firings_are_monotone_across_plans(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = make_request(
            origin=0, destination=8, direct_cost=tiny_engine.cost(0, 8), rho=2.5
        )
        stops = [pickup(r), dropoff(r)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.assign(r)
        taxi.set_plan(stops, route)
        taxi.advance(route.end_time + 1.0)
        assert taxi.stops_fired_total == 2
        assert taxi.idle  # schedule completed, per-schedule index reset
        # The lifetime counter survives the next plan installation.
        r2 = make_request(
            request_id=1, release_time=route.end_time + 1.0,
            origin=8, destination=0, direct_cost=tiny_engine.cost(8, 0), rho=2.5,
        )
        stops2 = [pickup(r2), dropoff(r2)]
        route2 = build_route(
            8, route.end_time + 1.0, stops2, tiny_engine.path, tiny_net.path_cost_s
        )
        taxi.assign(r2)
        taxi.set_plan(stops2, route2)
        assert taxi.stops_fired_total == 2
        taxi.advance(route2.end_time + 1.0)
        assert taxi.stops_fired_total == 4

    @pytest.mark.parametrize("name", SCHEMES)
    def test_notifications_bounded_by_advances(self, peak_runs, name):
        _sim, m = peak_runs[name]
        c = m.counters
        assert c.get("sim.stop_notifications", 0) <= c["sim.taxi_advances"]

    def test_index_refreshes_reduced(self, peak_runs):
        # Deadhead legs and post-drop-off repositioning move taxis
        # without firing stops, so true firings must be strictly rarer
        # than movement notifications — the reduction this fix buys.
        _sim, m = peak_runs["mt-share"]
        c = m.counters
        assert 0 < c["sim.stop_notifications"] < c["sim.taxi_advances"]


class TestMetricsSummary:
    def test_summary_keys(self, peak_runs):
        s = peak_runs["mt-share"][1].summary()
        for key in ("served", "response_ms", "waiting_min", "detour_min", "candidates"):
            assert key in s

    def test_str_renders(self, peak_runs):
        assert "mT-Share" in str(peak_runs["mt-share"][1])

    def test_service_rate(self, peak_runs):
        m = peak_runs["mt-share"][1]
        assert m.service_rate == pytest.approx(m.served / m.num_requests)


class TestDeterminism:
    """Two identical runs must produce identical assignments.

    Regression for hash-seed-dependent candidate ordering: candidates
    come out in ascending ``PartitionTaxiIndex`` column order, which is
    ascending taxi id, so the tie-broken match winners do not depend on
    set-iteration order.
    """

    @pytest.mark.parametrize("name", ["mt-share", "t-share"])
    def test_identical_runs_identical_assignments(self, test_scenario, name):
        def run_once():
            sim = Simulator(
                test_scenario.make_scheme(name),
                test_scenario.make_fleet(15, seed=1),
                test_scenario.requests(),
            )
            sim.run()
            return {
                rid: (trip.taxi_id, trip.assign_time, trip.pickup_time, trip.dropoff_time)
                for rid, trip in sim.log.trips.items()
            }

        assert run_once() == run_once()


class TestDrainClock:
    """Regression: ``Simulator.run`` must commit ``self._now`` on every
    drain step.

    The clock used to stay stale at ``last_release`` for the whole
    drain loop, so ``contracts.check_monotone_clock`` compared each
    step against the wrong previous value and event-boundary logic
    (fault injection) read old time."""

    def test_clock_tracks_drain_steps(self, small_net, small_engine):
        from repro.baselines.nosharing import NoSharing
        from repro.config import SystemConfig
        from repro.sim.engine import DRAIN_STEP_S
        from tests.conftest import make_request

        class ClockRecorder(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.boundaries = []

            def _advance_all(self, now):
                self.boundaries.append((self._now, now))
                super()._advance_all(now)

        width = small_net.xy[:, 0].max() - small_net.xy[:, 0].min()
        config = SystemConfig(search_range_m=float(width) * 2.0)
        scheme = NoSharing(small_net, small_engine, config)
        # One long trip released at t=0: the whole run is drain steps.
        request = make_request(
            request_id=0, release_time=0.0, origin=0, destination=99,
            direct_cost=small_engine.cost(0, 99), rho=3.0,
        )
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        sim = ClockRecorder(scheme, [taxi], [request])
        sim.run()

        drain = [(prev, now) for prev, now in sim.boundaries if now > 0.0]
        assert len(drain) >= 2  # the trip spans several drain steps
        for prev, now in drain:
            # The committed clock is the *previous* boundary, one step
            # behind — not frozen at the last release (0.0).
            assert prev == pytest.approx(now - DRAIN_STEP_S)


class TestDrainHorizonCutoff:
    """Regression: episodes cut off by the drain horizon must be settled.

    Passengers still aboard at the deadline never reached occupancy 0,
    so their episode was never settled and its fares silently vanished
    from ``regular_fares``/``shared_fares``.  The engine now
    force-settles open episodes at the cutoff instant and counts them
    in ``unsettled_episodes``."""

    @pytest.fixture()
    def cutoff_run(self, small_net, small_engine, monkeypatch):
        from repro.baselines.nosharing import NoSharing
        from repro.config import SystemConfig
        from tests.conftest import make_request

        # Cut the run two drain steps after the last release, long
        # before the ~11-minute cross-town trip can finish.
        monkeypatch.setattr("repro.sim.engine.DRAIN_HORIZON_S", 120.0)
        width = small_net.xy[:, 0].max() - small_net.xy[:, 0].min()
        config = SystemConfig(search_range_m=float(width) * 2.0)
        scheme = NoSharing(small_net, small_engine, config)
        request = make_request(
            request_id=0, release_time=0.0, origin=0, destination=99,
            direct_cost=small_engine.cost(0, 99), rho=3.0,
        )
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        sim = Simulator(scheme, [taxi], [request], payment=PaymentModel())
        return sim, sim.run()

    def test_passenger_still_aboard_at_deadline(self, cutoff_run):
        sim, m = cutoff_run
        trip = sim.log.trips[0]
        assert not trip.completed  # picked up, never dropped off
        assert sim.fleet[0].occupancy == 1

    def test_open_episode_settled_and_counted(self, cutoff_run):
        _sim, m = cutoff_run
        assert m.unsettled_episodes == 1
        # The interrupted episode's fares land in the aggregates
        # instead of vanishing.
        assert m.regular_fares > 0.0
        assert m.shared_fares > 0.0
        assert m.counters.get("sim.unsettled_episodes") == 1

    def test_balance_still_closes(self, cutoff_run):
        _sim, m = cutoff_run
        m.check_balance()  # raises if any bucket leaked
        assert m.served_online == 1


class TestUnsortedStreamIngest:
    """Regression: an unsorted request stream must not corrupt the clock.

    The batch loop used to trust ``self._requests`` to be sorted: any
    out-of-order delivery (a stream source, a caller bypassing the
    constructor) dragged the committed clock backwards — taxis
    re-advanced to an earlier ``now``, fault replay cursors ran ahead,
    and with contracts on the run died on ``check_monotone_clock``.
    The kernel heap-orders ingest, so delivery order no longer matters:
    a shuffled workload must produce bit-identical decisions to the
    sorted one."""

    def _run(self, test_scenario, shuffle_seed=None):
        import random

        requests = test_scenario.requests()
        sim = Simulator(
            test_scenario.make_scheme("mt-share"),
            test_scenario.make_fleet(15, seed=1),
            requests,
        )
        if shuffle_seed is not None:
            # Emulate out-of-order stream delivery by bypassing the
            # constructor's sort.
            shuffled = list(sim._requests)
            random.Random(shuffle_seed).shuffle(shuffled)
            assert shuffled != sim._requests
            sim._requests = shuffled
        m = sim.run()
        trips = {
            rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
            for rid, t in sim.log.trips.items()
        }
        return trips, m

    def test_shuffled_stream_matches_sorted(self, test_scenario):
        # Distinct release times make the heap order total, so the
        # shuffled run must reproduce the sorted run exactly.
        times = [r.release_time for r in test_scenario.requests()]
        assert len(set(times)) == len(times)

        trips_sorted, m_sorted = self._run(test_scenario)
        trips_shuffled, m_shuffled = self._run(test_scenario, shuffle_seed=7)
        assert trips_shuffled == trips_sorted
        assert m_shuffled.served == m_sorted.served
        assert m_shuffled.waiting_times_s == m_sorted.waiting_times_s
        assert m_shuffled.detour_times_s == m_sorted.detour_times_s
        assert m_shuffled.candidate_counts == m_sorted.candidate_counts
        m_shuffled.check_balance()


class TestDrainOvershoot:
    """Regression: the drain loop must not step past its horizon.

    ``while now < deadline: now += DRAIN_STEP_S`` overstepped the
    deadline by up to one full step whenever the horizon was not a
    step multiple — fleet state advanced and episodes settled up to
    ``DRAIN_STEP_S`` seconds past the advertised cutoff.  The kernel
    drain clamps the last tick to the deadline, so the final boundary
    lands exactly on it."""

    def test_last_drain_boundary_lands_on_deadline(
        self, small_net, small_engine, monkeypatch
    ):
        from repro.baselines.nosharing import NoSharing
        from repro.config import SystemConfig
        from tests.conftest import make_request

        # A horizon that is NOT a multiple of DRAIN_STEP_S (60 s).
        monkeypatch.setattr("repro.sim.engine.DRAIN_HORIZON_S", 150.0)

        class ClockRecorder(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.boundaries = []

            def _advance_all(self, now):
                self.boundaries.append(now)
                super()._advance_all(now)

        width = small_net.xy[:, 0].max() - small_net.xy[:, 0].min()
        config = SystemConfig(search_range_m=float(width) * 2.0)
        scheme = NoSharing(small_net, small_engine, config)
        # One cross-town trip (~11 min) released at t=0: the taxi is
        # still busy when the 150 s horizon cuts the run.
        request = make_request(
            request_id=0, release_time=0.0, origin=0, destination=99,
            direct_cost=small_engine.cost(0, 99), rho=3.0,
        )
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        sim = ClockRecorder(scheme, [taxi], [request], payment=PaymentModel())
        m = sim.run()

        drain = [t for t in sim.boundaries if t > 0.0]
        assert drain, "the run must actually drain"
        # No boundary past the horizon, and the last one exactly on it.
        assert max(drain) <= 150.0
        assert drain[-1] == pytest.approx(150.0)
        # The cut-off episode settles at the cutoff instant, not beyond.
        assert sim._now == pytest.approx(150.0)
        assert m.unsettled_episodes == 1
        m.check_balance()


class TestDuplicateTaxiIds:
    """Regression: ``{t.taxi_id: t for t in taxis}`` silently collapsed
    two taxis sharing an id to the last one — the first never moved, was
    never indexed, and ``len(sim.fleet)`` under-reported the fleet."""

    def test_duplicate_id_is_rejected_by_name(self, test_scenario):
        fleet = [Taxi(taxi_id=4, capacity=3, loc=0), Taxi(taxi_id=7, capacity=3, loc=1),
                 Taxi(taxi_id=4, capacity=3, loc=2)]
        with pytest.raises(ValueError, match="duplicate taxi id 4"):
            Simulator(test_scenario.make_scheme("no-sharing"), fleet, [])
