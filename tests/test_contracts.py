"""Runtime invariant contracts: violations raise, disabled mode is free.

The suite-wide ``_contracts_on`` fixture (conftest) keeps contracts
enabled for every other test, so the whole tier-1 run doubles as an
integration test of the hooked invariants; this file checks the
contract functions themselves plus the disabled path.
"""

from __future__ import annotations

import time
from dataclasses import replace
from operator import attrgetter

import pytest

from repro.analysis import contracts
from repro.analysis.contracts import ContractViolation
from repro.core.mobility_cluster import MobilityClusterIndex, MobilityVector
from repro.faults.plan import ShockWindow
from repro.fleet.schedule import dropoff, pickup
from repro.fleet.taxi import Taxi, TaxiRoute
from repro.sim.engine import Simulator
from repro.sim.metrics import SimulationMetrics

from .conftest import make_request


@pytest.fixture
def toggling():
    """Restore the module flag no matter what a test does to it."""
    previous = contracts.enabled()
    yield
    contracts.enable(previous)


# ----------------------------------------------------------------------
# check_schedule
# ----------------------------------------------------------------------
def test_valid_schedule_passes():
    a, b = make_request(request_id=1), make_request(request_id=2)
    stops = [pickup(a), pickup(b), dropoff(a), dropoff(b)]
    contracts.check_schedule(stops, occupancy=0, capacity=3)


def test_dropoff_before_pickup_raises():
    a = make_request(request_id=1)
    with pytest.raises(ContractViolation, match="before its pick-up"):
        contracts.check_schedule([dropoff(a), pickup(a)], occupancy=0, capacity=3)


def test_double_pickup_raises():
    a = make_request(request_id=1)
    with pytest.raises(ContractViolation, match="picked up twice"):
        contracts.check_schedule(
            [pickup(a), pickup(a), dropoff(a)], occupancy=0, capacity=3
        )


def test_onboard_dropoff_without_pickup_is_legal():
    # A passenger already on board when the schedule starts has a
    # drop-off with no preceding pick-up; that is the normal case.
    a = make_request(request_id=1)
    contracts.check_schedule([dropoff(a)], occupancy=1, capacity=3)


def test_capacity_exceeded_raises():
    a = make_request(request_id=1, num_passengers=2)
    b = make_request(request_id=2, num_passengers=2)
    stops = [pickup(a), pickup(b), dropoff(a), dropoff(b)]
    with pytest.raises(ContractViolation, match="capacity exceeded"):
        contracts.check_schedule(stops, occupancy=0, capacity=3)


def test_negative_occupancy_raises():
    a = make_request(request_id=1)
    with pytest.raises(ContractViolation, match="negative occupancy"):
        contracts.check_schedule([dropoff(a)], occupancy=0, capacity=3)


# ----------------------------------------------------------------------
# check_monotone_clock / check_request_accounting
# ----------------------------------------------------------------------
def test_monotone_clock():
    contracts.check_monotone_clock(10.0, 10.0)
    contracts.check_monotone_clock(10.0, 11.0)
    with pytest.raises(ContractViolation, match="moved backwards"):
        contracts.check_monotone_clock(11.0, 10.0)


def test_request_accounting_upper_bound():
    m = SimulationMetrics()
    m.num_online = 2
    m.num_offline = 1
    m.served_online = 2
    contracts.check_request_accounting(m)
    m.unserved_online = 1
    with pytest.raises(ContractViolation, match="overshoots"):
        contracts.check_request_accounting(m)


# ----------------------------------------------------------------------
# check_due_index
# ----------------------------------------------------------------------
def test_due_index_coverage():
    parked = Taxi(taxi_id=0, capacity=3, loc=0)
    moving = Taxi(taxi_id=1, capacity=3, loc=0)
    moving.set_plan([], TaxiRoute(nodes=[0, 1], times=[5.0, 9.0]))
    taxis = [parked, moving]
    due_time = attrgetter("next_due")

    contracts.check_due_index(taxis, due_time, [(5.0, 1)])
    contracts.check_due_index(taxis, due_time, [(7.0, 1), (2.0, 1), (3.0, 0)])  # stale is fine
    with pytest.raises(ContractViolation, match="taxi 1 .* not re-keyed"):
        contracts.check_due_index(taxis, due_time, [])
    with pytest.raises(ContractViolation, match="taxi 1 .* not re-keyed"):
        contracts.check_due_index(taxis, due_time, [(5.5, 1), (1.0, 0)])


def test_disabled_due_index_check_is_a_noop(toggling):
    contracts.enable(False)
    moving = Taxi(taxi_id=0, capacity=3, loc=0)
    moving.set_plan([], TaxiRoute(nodes=[0], times=[5.0]))
    contracts.check_due_index([moving], attrgetter("next_due"), [])


def test_forgotten_rekey_fails_at_the_next_boundary(test_scenario):
    """What the armed contract is for: a plan-change site that does not
    re-key its taxi breaks every simulation test, not just a benchmark."""

    class Forgetful(Simulator):
        def _install(self, result, request, now):
            self._rekey = lambda taxi: None  # this site "forgot"
            try:
                super()._install(result, request, now)
            finally:
                del self._rekey

    sim = Forgetful(
        test_scenario.make_scheme("no-sharing"),
        test_scenario.make_fleet(15, seed=1),
        test_scenario.requests(),
    )
    with pytest.raises(ContractViolation, match="not re-keyed"):
        sim.run()


# ----------------------------------------------------------------------
# check_shock_scan
# ----------------------------------------------------------------------
XY = [(0.0, 0.0), (100.0, 0.0), (5000.0, 0.0)]
DISC = ShockWindow(start=0.0, end=900.0, cx=0.0, cy=0.0, radius_m=150.0, delay_s=60.0)


def _routed(taxi_id, loc):
    taxi = Taxi(taxi_id=taxi_id, capacity=3, loc=loc)
    taxi.set_plan([], TaxiRoute(nodes=[loc, 2], times=[5.0, 99.0]))
    return taxi


def test_shock_scan_completeness():
    parked = Taxi(taxi_id=0, capacity=3, loc=0)  # in the disc, no route
    far = _routed(1, 2)                           # routed, outside the disc
    near = _routed(2, 1)                          # routed, inside the disc
    taxis = [parked, far, near]

    contracts.check_shock_scan(taxis, [2], 0, DISC, XY, set())        # scanned it
    contracts.check_shock_scan(taxis, [], 0, DISC, XY, {(0, 2)})      # already shocked
    contracts.check_shock_scan(taxis, [], 0, replace(DISC, delay_s=0.0), XY, set())
    near.out_of_service = True
    contracts.check_shock_scan(taxis, [], 0, DISC, XY, set())
    near.out_of_service = False
    with pytest.raises(ContractViolation, match="taxi 2 .* window 0 .* bypassed"):
        contracts.check_shock_scan(taxis, [0, 1], 0, DISC, XY, set())
    with pytest.raises(ContractViolation, match="taxi 2 .* window 1"):
        contracts.check_shock_scan(taxis, [], 1, DISC, XY, {(0, 2)})  # another window's


def test_disabled_shock_scan_check_is_a_noop(toggling):
    contracts.enable(False)
    contracts.check_shock_scan([_routed(0, 1)], [], 0, DISC, XY, set())


def test_unfed_shock_pass_fails_the_contract(test_scenario):
    """A shock pass that never hears of a re-keyed taxi misses its shock;
    the armed contract catches the miss at the boundary it happens."""

    class Unfed(Simulator):
        def _rekey(self, taxi):
            super()._rekey(taxi)
            self._touched.clear()

    fleet = test_scenario.make_fleet(15, seed=1)
    requests = test_scenario.requests()
    sim = Unfed(
        test_scenario.make_scheme("no-sharing"), fleet, requests,
        faults=test_scenario.fault_plan("seed=5,shock_windows=2", fleet, requests),
    )
    with pytest.raises(ContractViolation, match="bypassed the re-key"):
        sim.run()


# ----------------------------------------------------------------------
# enablement and overhead
# ----------------------------------------------------------------------
def test_cluster_columns():
    fleet = {tid: Taxi(taxi_id=tid, capacity=3, loc=0) for tid in (2, 5)}
    index = MobilityClusterIndex()
    index.register({2: 0, 5: 1})
    east = MobilityVector(0.0, 0.0, 100.0, 0.0)
    index.add_request(1, east)
    index.update_taxi(5, east)
    contracts.check_cluster_columns(fleet, index)
    index.cluster[0] = 7  # no such cluster
    with pytest.raises(ContractViolation, match="no longer exist"):
        contracts.check_cluster_columns(fleet, index)
    index.cluster[0] = -1
    fleet[5].break_down()  # out of service, still clustered and with a unit
    with pytest.raises(ContractViolation, match="skipped the cluster eviction"):
        contracts.check_cluster_columns(fleet, index)
    index.update_taxi(5, None)
    contracts.check_cluster_columns(fleet, index)


def test_disabled_contracts_are_noops(toggling):
    contracts.enable(False)
    a = make_request(request_id=1)
    contracts.check_schedule([dropoff(a), pickup(a)], occupancy=0, capacity=0)
    contracts.check_monotone_clock(11.0, 10.0)
    m = SimulationMetrics()
    m.served_online = 5
    contracts.check_request_accounting(m)


def test_env_parsing(monkeypatch):
    for value, expected in [
        ("", False),
        ("0", False),
        ("false", False),
        ("off", False),
        ("1", True),
        ("yes", True),
    ]:
        monkeypatch.setenv(contracts.ENV_VAR, value)
        assert contracts._env_enabled() is expected, value
    monkeypatch.delenv(contracts.ENV_VAR)
    assert contracts._env_enabled() is False


def test_invariant_metadata():
    assert contracts.check_schedule.__name__ == "check_schedule"
    assert "capacity" in contracts.check_schedule.contract_description


def test_disabled_overhead_below_five_percent(toggling, test_scenario):
    """Mirror of test_obs's overhead bound, for the contract layer.

    A disabled contract check costs one call + one flag branch.  Bound
    the projected total (per-call cost x calls a small run makes)
    against 5% of that run's wall time.
    """
    contracts.enable(False)

    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        contracts.check_monotone_clock(1.0, 2.0)
    per_call = (time.perf_counter() - t0) / reps

    contracts.enable(True)
    sim = Simulator(
        test_scenario.make_scheme("mt-share"),
        test_scenario.make_fleet(15, seed=1),
        test_scenario.requests(),
    )
    metrics = sim.run()
    # One clock + one accounting check per event, one schedule check
    # per installed plan: bounded by requests + served counts.
    calls = 2 * metrics.num_requests + metrics.served + len(metrics.waiting_times_s)
    projected = per_call * calls
    assert projected <= 0.05 * metrics.wall_time_s, (
        f"disabled contracts projected at {projected:.6f}s "
        f"vs wall {metrics.wall_time_s:.3f}s"
    )
