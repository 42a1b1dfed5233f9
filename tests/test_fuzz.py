"""Randomised end-to-end checks: simulator invariants under varied worlds.

Property-style tests over randomly drawn small scenarios, fleets and
parameters: whatever the draw, served trips respect deadlines, metrics
stay consistent, and schemes never corrupt taxi state.  ``window-lap``
draws its window, faults and rebalancing too, and every flush's bulk
screen is checked against the per-request search, with the runtime
contracts (the fleet table's included) armed by the suite.
"""

from unittest import mock

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.mtshare import MTShare
from repro.core.payment import PaymentModel
from repro.core.window import WindowLAP
from repro.demand.dataset import TripDataset
from repro.demand.prediction import DemandPredictor
from repro.faults.plan import build_fault_plan, parse_fault_spec
from repro.fleet.rebalance import Rebalancer, parse_rebalance_spec
from repro.fleet.taxi import Taxi
from repro.network import generators
from repro.network.generators import grid_city
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.bipartite import bipartite_partition
from repro.sim.engine import Simulator


def random_city(seed: int):
    """A small random city, trace, partitioning and config, plus the
    draw's generator and the fleet's seat count."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(7, 11))
    spacing_m = float(rng.uniform(120, 260))
    with mock.patch.object(generators, "REMOVAL_RATE", float(rng.uniform(0.0, 0.15))):
        net = grid_city(rows=size, cols=size, spacing_m=spacing_m, seed=seed)
    engine = ShortestPathEngine(net)

    n = net.num_vertices
    m = int(rng.integers(40, 140))
    origins = rng.integers(0, n, size=m)
    dests = rng.integers(0, n, size=m)
    times = np.sort(rng.uniform(0, 1800, size=m))
    ds = TripDataset(
        release_times=times,
        origins=origins,
        destinations=dests,
        taxi_ids=np.zeros(m, dtype=int),
    )
    rho = float(rng.uniform(1.15, 1.6))
    offline = int(rng.integers(0, max(1, m // 4)))
    requests = ds.to_requests(engine, rho=rho, offline_count=min(offline, m))

    hist = rng.integers(0, n, size=(800, 2))
    part = bipartite_partition(net, hist, num_partitions=int(rng.integers(4, 12)),
                               num_transition_clusters=3, seed=seed)
    config = SystemConfig(
        num_partitions=part.num_partitions,
        search_range_m=float(rng.uniform(400, 1200)),
    )
    capacity = int(rng.integers(2, 5))
    return rng, net, engine, part, config, capacity, requests


def random_fleet(rng, num_vertices, capacity):
    return [
        Taxi(taxi_id=i, capacity=capacity, loc=int(rng.integers(num_vertices)))
        for i in range(int(rng.integers(4, 16)))
    ]


def random_world(seed: int):
    """A small random city, trace, fleet and mT-Share dispatcher."""
    rng, net, engine, part, config, capacity, requests = random_city(seed)
    scheme = MTShare(net, engine, config, part,
                     probabilistic=bool(rng.integers(0, 2)))
    fleet = random_fleet(rng, net.num_vertices, capacity)
    return scheme, fleet, requests


@pytest.mark.parametrize("seed", range(10))
def test_random_world_invariants(seed):
    scheme, fleet, requests = random_world(seed)
    sim = Simulator(scheme, fleet, requests, payment=PaymentModel())
    metrics = sim.run()

    # Conservation: every assignment completes; counters agree.
    assert metrics.completed == metrics.served
    assert metrics.served <= metrics.num_requests
    assert metrics.served_online <= metrics.num_online + metrics.num_offline

    # Deadlines hold for every completed trip.
    for trip in sim.log.completed():
        assert trip.pickup_time >= trip.request.release_time - 1e-6
        assert trip.pickup_time <= trip.request.pickup_deadline + 1e-6
        assert trip.dropoff_time <= trip.request.deadline + 1e-6
        assert trip.shared_travel_cost >= trip.request.direct_cost - 1e-6

    # Taxi state fully drained.
    for taxi in sim.fleet.values():
        assert taxi.occupancy == 0
        assert not taxi.assigned
        assert taxi.committed == 0

    # Monetary invariants when anything was settled.
    if metrics.regular_fares > 0:
        assert metrics.shared_fares <= metrics.regular_fares + 1e-6
        assert metrics.driver_incomes >= metrics.route_fares - 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_random_world_deterministic(seed):
    scheme_a, fleet_a, requests = random_world(seed)
    m_a = Simulator(scheme_a, fleet_a, requests).run()
    scheme_b, fleet_b, _ = random_world(seed)
    m_b = Simulator(scheme_b, fleet_b, requests).run()
    assert m_a.served == m_b.served
    assert m_a.served_offline == m_b.served_offline


def random_window_run(seed: int):
    """A random city through ``window-lap``: the window drawn from
    0-120 s, faults and rebalancing each on or off."""
    rng, net, engine, part, config, capacity, requests = random_city(seed)
    config = config.replace(dispatch_window_s=float(rng.choice([0.0, 10.0, 30.0, 60.0, 120.0])))
    landmarks = LandmarkGraph(net, part.partitions, engine)
    scheme = WindowLAP(net, engine, config, part, landmarks=landmarks)
    fleet = random_fleet(rng, net.num_vertices, capacity)
    faults = None
    if rng.integers(0, 2):
        spec = parse_fault_spec(
            f"seed={seed},breakdown_rate={rng.uniform(0.05, 0.3):.2f},"
            f"cancel_rate={rng.uniform(0.0, 0.2):.2f},shock_windows={int(rng.integers(0, 3))}"
        )
        faults = build_fault_plan(spec, fleet, requests, net)
    rebalance = None
    if rng.integers(0, 2):
        predictor = DemandPredictor(rng.uniform(0.0, 5.0, size=(part.num_partitions, 24)))
        rebalance = Rebalancer(parse_rebalance_spec("on"), predictor, landmarks, engine, net)
    sim = Simulator(scheme, fleet, requests, payment=PaymentModel(), faults=faults,
                    rebalance=rebalance)
    return sim, scheme


@pytest.mark.parametrize("seed", range(12))
def test_random_window_run_screens_like_the_per_request_search(seed):
    """On every flush, row ``i`` of the bulk screen is exactly
    ``candidate_taxis(batch[i])``, taxi for taxi, in order."""
    sim, scheme = random_window_run(seed)
    matcher = scheme.matcher
    screen_window = matcher.screen_window
    flushes = []

    def checked(batch, table, now):
        screen = screen_window(batch, table, now)
        for request, row in zip(batch, screen.member):
            bulk = [screen.taxis[j].taxi_id for j in np.flatnonzero(row)]
            scalar = [taxi.taxi_id for taxi in matcher.candidate_taxis(request, sim.fleet, now)]
            assert bulk == scalar, (request.request_id, now)
        flushes.append(len(batch))
        return screen

    matcher.screen_window = checked
    metrics = sim.run()
    assert metrics.completed == metrics.served
    assert all(taxi.committed == 0 for taxi in sim.fleet.values())
    if scheme.dispatch_window_s >= 60.0:
        assert flushes, "no window held two requests"
