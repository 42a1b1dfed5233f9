"""pGreedyDP's insertion operator against exhaustive enumeration.

pGreedyDP's original solves the minimum-detour insertion with dynamic
programming; here every scheme scores insertions through
:func:`repro.fleet.schedule.score_insertions`.  These draws are built so
that the base schedule is feasible but its deadlines bind, and the
operator's detour (Eq. 4 against the unchanged schedule) must equal the
optimum of full enumeration + feasibility filtering.
"""

import numpy as np
import pytest

from repro.demand.request import RideRequest
from repro.fleet.schedule import (
    arrival_times,
    capacity_ok,
    deadlines_met,
    dropoff,
    enumerate_insertions,
    materialize_insertion,
    pickup,
    score_insertions,
)
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine
from repro.obs import NULL
from tests.conftest import make_request


def _manhattan_engine() -> ShortestPathEngine:
    """A 10x10 bidirectional grid of nodes 0..99, 10 s per block."""
    xy = [(100.0 * (v % 10), 100.0 * (v // 10)) for v in range(100)]
    edges = []
    for v in range(100):
        if v % 10 < 9:
            edges += [(v, v + 1), (v + 1, v)]
        if v < 90:
            edges += [(v, v + 10), (v + 10, v)]
    return ShortestPathEngine(RoadNetwork(xy, edges, speed_mps=10.0), mode="full")


ENGINE = _manhattan_engine()


def grid_cost(u, v):
    """Manhattan travel cost on the grid: what the engine returns."""
    return ENGINE.cost(u, v)


def operator_best(start_node, start_time, stops, request, capacity, onboard):
    """``(detour, stops)`` of the operator, or ``None``."""
    start = (start_node, start_time, stops, onboard, capacity)
    scored = score_insertions(ENGINE, [start], [request], ([0], [0]), NULL)
    if not scored:
        return None
    _idx, last, i, j = scored[0]
    base = arrival_times(start_node, start_time, stops, grid_cost)
    base_total = (base[-1] - start_time) if base else 0.0
    detour = (last - start_time) - base_total
    return detour, materialize_insertion(stops, request, i, j)


def reference_best(start_node, start_time, stops, request, capacity, onboard):
    """Ground truth: full enumeration + feasibility filtering."""
    best = None
    for _i, _j, new_stops in enumerate_insertions(stops, request):
        if not capacity_ok(new_stops, onboard, capacity):
            continue
        times = arrival_times(start_node, start_time, new_stops, grid_cost)
        if not deadlines_met(new_stops, times):
            continue
        base = arrival_times(start_node, start_time, list(stops), grid_cost)
        base_total = (base[-1] - start_time) if base else 0.0
        detour = (times[-1] - start_time) - base_total
        if best is None or detour < best[0] - 1e-12:
            best = (detour, new_stops)
    return best


def random_case(seed):
    rng = np.random.default_rng(seed)
    m_pairs = int(rng.integers(0, 4))
    start_node = int(rng.integers(100))
    start_time = float(rng.uniform(0, 100))
    capacity = int(rng.integers(1, 5))
    onboard = 0

    # Draw OD pairs, lay out a provisional schedule, then derive each
    # existing passenger's deadline from their *actual* arrival times so
    # the base schedule is always feasible but still binding.
    pairs = []
    provisional = []
    for k in range(m_pairs):
        o = int(rng.integers(100))
        d = int(rng.integers(100))
        if o == d:
            d = (d + 1) % 100
        r = make_request(request_id=100 + k, release_time=start_time,
                         origin=o, destination=d,
                         direct_cost=grid_cost(o, d), rho=5.0)
        pairs.append(r)
        provisional.append(pickup(r))
        provisional.append(dropoff(r))
    if len(provisional) >= 4 and rng.random() < 0.5:
        provisional[1], provisional[2] = provisional[2], provisional[1]

    times = arrival_times(start_node, start_time, provisional, grid_cost)
    arrival_of = {}
    for stop, t in zip(provisional, times):
        arrival_of[(stop.request.request_id, stop.kind.value)] = t

    rebuilt = {}
    for r in pairs:
        direct = r.direct_cost
        need = max(
            start_time + direct,
            arrival_of[(r.request_id, "pickup")] + direct,
            arrival_of[(r.request_id, "dropoff")],
        )
        margin = float(rng.uniform(0.0, 60.0))
        rebuilt[r.request_id] = RideRequest(
            request_id=r.request_id,
            release_time=start_time,
            origin=r.origin,
            destination=r.destination,
            deadline=need + margin,
            direct_cost=direct,
        )
    stops = []
    for stop in provisional:
        r2 = rebuilt[stop.request.request_id]
        stops.append(pickup(r2) if stop.kind.value == "pickup" else dropoff(r2))

    times = arrival_times(start_node, start_time, stops, grid_cost)
    assert deadlines_met(stops, times)
    if not capacity_ok(stops, onboard, capacity):
        return None

    o = int(rng.integers(100))
    d = int(rng.integers(100))
    if o == d:
        d = (d + 1) % 100
    request = make_request(
        request_id=1,
        release_time=start_time,
        origin=o,
        destination=d,
        direct_cost=grid_cost(o, d),
        rho=float(rng.uniform(1.1, 3.0)),
    )
    return start_node, start_time, stops, request, capacity, onboard


@pytest.mark.parametrize("seed", range(150))
def test_dp_matches_enumeration(seed):
    case = random_case(seed)
    if case is None:
        pytest.skip("infeasible base draw")
    start_node, start_time, stops, request, capacity, onboard = case
    expected = reference_best(*case)
    got = operator_best(*case)
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == pytest.approx(expected[0], abs=1e-9)
    # The returned schedule must itself be feasible with the same detour.
    times = arrival_times(start_node, start_time, got[1], grid_cost)
    assert deadlines_met(got[1], times)
    assert capacity_ok(got[1], onboard, capacity)


def test_empty_schedule_insertion():
    r = make_request(request_id=1, origin=3, destination=47,
                     direct_cost=grid_cost(3, 47), rho=2.0)
    got = operator_best(0, 0.0, [], r, capacity=3, onboard=0)
    assert got is not None
    detour, stops = got
    assert detour == pytest.approx(grid_cost(0, 3) + grid_cost(3, 47))
    assert [s.kind.value for s in stops] == ["pickup", "dropoff"]


def test_full_taxi_returns_none():
    r = make_request(request_id=1, origin=3, destination=47,
                     direct_cost=grid_cost(3, 47), rho=2.0)
    assert operator_best(0, 0.0, [], r, capacity=1, onboard=1) is None
