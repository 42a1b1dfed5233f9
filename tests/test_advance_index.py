"""Due-index fleet advancement (docs/PERFORMANCE.md, "Fleet advancement").

The simulator advances only the taxis its due index names.  These tests
hold it to the full fleet sweep it replaced
(:class:`tests.oracles.FullSweepSimulator`): the same callbacks in the
same order on every scheme, with faults and rebalancing on, batch and
streamed — plus the one ordering rule no benchmark can see (a plan that
falls due *during* a sweep), the ``Taxi`` invariant the index rests on,
and the bound on the work the index may do.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.nosharing import NoSharing
from repro.baselines.tshare import TShare
from repro.config import SystemConfig
from repro.core.payment import PaymentModel
from repro.demand.request import RideRequest
from repro.fleet.schedule import dropoff, pickup
from repro.fleet.taxi import Taxi, TaxiRoute
from repro.index.spatial import GridSpatialIndex
from repro.service.sources import synthetic_requests
from repro.sim import engine as engine_module
from repro.sim.engine import Simulator
from tests.conftest import make_request
from tests.oracles import FullSweepSimulator

CHAOS_SPEC = "seed={seed},breakdown_rate=0.3,cancel_rate=0.15,shock_windows=2"
CHAOS = CHAOS_SPEC.format(seed=5)

#: scheme -> scenario fixture (``mt-share-pro`` runs non-peak, where a
#: quarter of the requests are street hails: encounter scans,
#: ``try_offline``, redispatch and live ``maybe_cruise``).
SCHEMES = {
    "no-sharing": "test_scenario",
    "t-share": "test_scenario",
    "pgreedydp": "test_scenario",
    "mt-share": "test_scenario",
    "mt-share-pro": "test_nonpeak_scenario",
    "window-lap": "test_scenario",  # W = 30 s, the config default
}

#: Counter families the advancement order feeds; the two indexes' own
#: work counters are the only names the oracle does not produce.
COUNTER_PREFIXES = ("sim.", "match.", "fault.", "rebalance.", "window.")
INDEX_COUNTERS = {"sim.advance_calls", "sim.due_index_entries", "fault.shock_checks"}


def _observe(cls, scenario, scheme, variant, streamed, num_taxis=25, chaos=CHAOS):
    """Run ``cls`` over one world; return everything a decision change would move."""
    requests = scenario.requests(seed=1)
    fleet = scenario.make_fleet(num_taxis, seed=1)
    name, _, prob = scheme.partition("+")  # "t-share+prob": Fig. 16's combinations
    sim = cls(
        scenario.make_scheme(name, probabilistic=bool(prob)),
        fleet,
        [] if streamed else requests,
        payment=PaymentModel(),
        faults=scenario.fault_plan(chaos, fleet, requests) if variant == "faults" else None,
        rebalance=scenario.rebalance_policy("on") if variant == "rebalance" else None,
    )
    decisions = []
    sim.on_decision = lambda request, now, matched, taxi_id, _elapsed, kind: decisions.append(
        (request.request_id, now, matched, taxi_id, kind)
    )
    if streamed:
        sim.stream_begin()
        for request in sorted(requests, key=lambda r: (r.release_time, r.request_id)):
            sim.stream_submit(request)
        m = sim.stream_finish()
    else:
        m = sim.run()
    return {
        "decisions": decisions,
        "trips": {
            rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
            for rid, t in sim.log.trips.items()
        },
        "waiting": m.waiting_times_s,
        "detour": m.detour_times_s,
        "candidates": m.candidate_counts,
        "fares": (m.regular_fares, m.shared_fares, m.driver_incomes, m.route_fares,
                  m.quoted_fares),
        "buckets": (m.served_online, m.served_offline, m.completed, m.expired_offline,
                    m.unserved_online, m.unserved_offline, m.cancelled, m.stranded,
                    m.reassigned, m.breakdowns, m.shock_delays),
        "counters": {
            k: v for k, v in m.counters.items()
            if k.startswith(COUNTER_PREFIXES) and k not in INDEX_COUNTERS
        },
        "fleet": [(t.loc, t.loc_time, t.out_of_service, t.stops_fired_total) for t in fleet],
    }, m


@pytest.mark.parametrize("streamed", [False, True], ids=["batch", "streamed"])
@pytest.mark.parametrize("variant", ["plain", "faults", "rebalance"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_due_index_matches_full_sweep(request, scheme, variant, streamed):
    scenario = request.getfixturevalue(SCHEMES[scheme])
    expected, _ = _observe(FullSweepSimulator, scenario, scheme, variant, streamed)
    got, m = _observe(Simulator, scenario, scheme, variant, streamed)
    for key, value in expected.items():
        assert got[key] == value, key
    # The world is not vacuous: taxis moved, stops fired, and the
    # subsystems the variant names actually ran.
    assert got["counters"]["sim.taxi_advances"] > 0
    assert got["counters"]["sim.stop_notifications"] > 0
    if scheme == "mt-share-pro":
        assert got["counters"]["sim.encounters_scanned"] > 0 and m.served_offline > 0
    if variant == "faults":
        assert m.breakdowns > 0 and m.cancelled + m.shock_delays > 0
    if variant == "rebalance":
        assert got["counters"]["rebalance.ticks"] > 0
        # (non-peak mt-share-pro idles nobody: every free taxi is
        # already on a demand-seeking cruise, which the census skips)
        assert got["counters"].get("rebalance.moves", 0) > 0 or scheme == "mt-share-pro"


@pytest.mark.parametrize("fault_seed", range(1, 13))
def test_pgreedydp_survives_every_fault_seed(test_scenario, fault_seed):
    """The matrix above runs fault seed 5 because, until ``PGreedyDP.dispatch``
    caught ``RouteInfeasible``, it was one of the five in 1-12 that did not
    crash: a shock window makes a taxi late for a stop it carries, the
    insertion DP still accepts it, and laying its route out fails.  The
    request must go to the next-best candidate (seeds 1, 2, 3, 4, 6, 7
    and 9 reach that line)."""
    chaos = CHAOS_SPEC.format(seed=fault_seed)
    batch, m = _observe(Simulator, test_scenario, "pgreedydp", "faults", False, chaos=chaos)
    m.check_balance()
    assert m.breakdowns > 0 and m.served_online > 0
    if fault_seed == 1:
        streamed, _ = _observe(Simulator, test_scenario, "pgreedydp", "faults", True, chaos=chaos)
        assert streamed == batch


# ----------------------------------------------------------------------
# the mid-sweep ordering rule
# ----------------------------------------------------------------------
class _RecordingTShare(TShare):
    """T-Share that logs which taxi the simulator moved at which boundary."""

    def __init__(self, *args):
        super().__init__(*args)
        self.moved: list[tuple[int, float]] = []

    def on_taxi_advanced(self, taxi, now, stops_fired):
        self.moved.append((taxi.taxi_id, now))
        super().on_taxi_advanced(taxi, now, stops_fired)


def _redispatch_world(cls, net, engine, winner):
    """Three taxis; taxi 1 meets a street hail it cannot carry.

    Taxi 1 (one seat, at vertex 0) takes the online request 0 -> 9 and
    drives along row 0 past vertex 3, where the offline request waits;
    it is full, so the hail is redispatched — at the instant taxi 1
    reached vertex 3, which is *before* the boundary doing the sweep —
    to ``winner``, parked four edges away at vertex 43 (the third taxi
    sits at vertex 99, out of reach).  The boundary is the release of a
    second online request at vertex 3, 100 s after the encounter, whose
    pick-up deadline the winner makes only if the simulator has already
    moved it along its new route.
    """
    width = float(net.xy[:, 0].max() - net.xy[:, 0].min())
    scheme = _RecordingTShare(net, engine, SystemConfig(search_range_m=2.0 * width))
    # The world is laid out on a 150 m position grid; T-Share's own is
    # gamma / 2, a single cell at this search range.
    scheme._position_index = GridSpatialIndex(cell_size_m=150.0)  # noqa: SLF001
    locs = {1: 0, winner: 43, 2 - winner: 99}
    fleet = [Taxi(taxi_id=i, capacity=1 if i == 1 else 3, loc=locs[i]) for i in range(3)]

    def trip(rid, release, origin, destination, wait, offline=False):
        direct = engine.cost(origin, destination)
        return RideRequest(rid, release, origin, destination, release + wait + direct,
                           direct, offline=offline)

    met_at = engine.cost(0, 3)
    boundary = met_at + 100.0
    requests = [
        trip(0, 0.0, 0, 9, 600.0),
        trip(1, 0.0, 3, 5, met_at + 200.0, offline=True),
        trip(2, boundary, 3, 9, 110.0),
    ]
    decisions = []
    sim = cls(scheme, fleet, requests, redispatch_encounters=True)
    sim.on_decision = lambda request, now, matched, taxi_id, _elapsed, kind: decisions.append(
        (request.request_id, now, matched, taxi_id, kind)
    )
    m = sim.run()
    trips = {rid: (t.taxi_id, t.pickup_time, t.dropoff_time) for rid, t in sim.log.trips.items()}
    return decisions, trips, scheme.moved, m.counters["sim.taxi_advances"], boundary


@pytest.mark.parametrize("winner", [2, 0], ids=["later-in-fleet-order", "earlier-in-fleet-order"])
def test_plan_installed_mid_sweep_is_advanced_in_fleet_order(small_net, small_engine, winner,
                                                             monkeypatch):
    """A full sweep reaches taxi 2 after taxi 1 at the same boundary and
    taxi 0 not until the next one; the due index must do the same, and
    the release sharing the boundary must see the same fleet.  The hail
    is heard only at its own vertex."""
    monkeypatch.setattr(engine_module, "ENCOUNTER_RADIUS_M", 1.0)
    expected = _redispatch_world(FullSweepSimulator, small_net, small_engine, winner)
    got = _redispatch_world(Simulator, small_net, small_engine, winner)
    assert got == expected

    decisions, trips, moved, _advances, boundary = got
    rid, met_at, *outcome = decisions[1]
    assert (rid, outcome) == (1, [True, winner, "redispatch"]) and met_at < boundary
    first_move = next(now for tid, now in moved if tid == winner)
    if winner == 2:
        # Moved at the boundary that installed its plan, so the request
        # released there finds it already two edges closer and shares it.
        assert first_move == boundary
        assert decisions[2] == (2, boundary, True, 2, "online")
        assert trips[2][0] == 2
    else:
        # Already passed in fleet order: first moved one drain step
        # later, and the release at the boundary still sees it parked
        # at vertex 43, too far to make the pick-up deadline.
        assert first_move > boundary
        assert decisions[2] == (2, boundary, False, None, "online")


# ----------------------------------------------------------------------
# the Taxi invariant the index rests on
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set_plan", "clear_plan", "apply_delay", "break_down", "advance"]),
        st.integers(min_value=0, max_value=2**31),  # op-private randomness
        st.floats(min_value=0.0, max_value=40.0),   # clock step before the probe
    ),
    min_size=1, max_size=30,
)


def _random_plan(taxi, rng, clock, next_rid):
    """A plan keeping every commitment, maybe adding one request; any route shape."""
    stops = taxi.pending_stops()
    if rng.random() < 0.7 and taxi.committed < taxi.capacity:
        request = make_request(request_id=next_rid, origin=rng.randrange(9),
                               destination=rng.randrange(9))
        taxi.assign(request)
        stops = stops + [pickup(request), dropoff(request)]
    length = rng.randrange(0 if not stops else 1, 6)
    nodes = [rng.randrange(9) for _ in range(length)]
    t = clock + rng.uniform(-30.0, 30.0)  # first vertex may already be due
    times = []
    for _ in nodes:
        times.append(t)
        t += rng.choice([0.0, 5.0, 12.5])
    positions = sorted(rng.randrange(length) for _ in stops)
    return stops, TaxiRoute(nodes=nodes, times=times, stop_positions=positions)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_advance_is_a_noop_iff_not_due(ops):
    """After any sequence of plan changes, ``advance(now)`` returns ``[]``
    and changes no field iff ``next_due > now``."""
    taxi = Taxi(taxi_id=0, capacity=3, loc=0)
    clock = 0.0
    for rid, (op, seed, step) in enumerate(ops):
        rng = random.Random(seed)
        if op == "set_plan" and not taxi.out_of_service:
            taxi.set_plan(*_random_plan(taxi, rng, clock, rid))
        elif op == "clear_plan" and not taxi.onboard:
            for request in list(taxi.assigned.values()):
                taxi.unassign(request)
            taxi.clear_plan()
        elif op == "apply_delay":
            taxi.apply_delay(rng.choice([0.0, 7.0, 60.0]))
        elif op == "break_down":
            taxi.break_down()
        clock += step
        due = taxi.next_due
        before = copy.deepcopy(taxi)
        traversed = taxi.advance(clock)
        if due > clock:
            assert traversed == [] and taxi == before
        else:
            assert traversed and traversed[0][1] == due and taxi != before
        assert taxi.next_due > clock  # everything due was consumed


# ----------------------------------------------------------------------
# the work bound (ROADMAP 1(a): advance calls within 2x of real moves)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_advance_calls_within_twice_the_real_moves(request, scheme):
    """A reintroduced sweep costs ``events x fleet`` calls and fails here."""
    scenario = request.getfixturevalue(SCHEMES[scheme])
    got, m = _observe(Simulator, scenario, scheme, "plain", streamed=False)
    plans_installed = sum(1 for d in got["decisions"] if d[2])
    calls = m.counters["sim.advance_calls"]
    moves = m.counters["sim.taxi_advances"]
    assert moves <= calls <= 2 * moves + plans_installed


def test_due_index_stays_fleet_sized_over_a_long_stream(small_net, small_engine):
    """No-sharing keeps one live entry per moving taxi: 5,000 requests
    through the bounded-memory streaming mode must not grow the heap."""
    width = float(small_net.xy[:, 0].max() - small_net.xy[:, 0].min())
    config = SystemConfig(search_range_m=2.0 * width)
    fleet = [Taxi(taxi_id=i, capacity=3, loc=(7 * i) % 100) for i in range(20)]
    sim = Simulator(NoSharing(small_net, small_engine, config), fleet, [], compact=True)
    peak = 0

    def watch(*_decision):
        nonlocal peak
        peak = max(peak, len(sim._due))

    sim.on_decision = watch
    sim.stream_begin()
    for ride in synthetic_requests(small_engine, 5000, rate_per_s=0.1, seed=4):
        sim.stream_submit(ride)
        sim.stream_pump(until=ride.release_time)
    m = sim.stream_finish()
    assert m.served_online > 1000
    assert peak <= len(fleet)
    assert m.counters["sim.due_index_entries"] <= len(fleet)
