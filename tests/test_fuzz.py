"""Randomised end-to-end checks: simulator invariants under varied worlds.

Property-style tests over randomly drawn small scenarios, fleets and
parameters: whatever the draw, served trips respect deadlines, metrics
stay consistent, and schemes never corrupt taxi state.
"""

from unittest import mock

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.mtshare import MTShare
from repro.core.payment import PaymentModel
from repro.demand.dataset import TripDataset
from repro.fleet.taxi import Taxi
from repro.network import generators
from repro.network.generators import grid_city
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.bipartite import bipartite_partition
from repro.sim.engine import Simulator


def random_world(seed: int):
    """A small random city, trace, fleet and mT-Share dispatcher."""
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
    scheme = MTShare(net, engine, config, part,
                     probabilistic=bool(rng.integers(0, 2)))
    fleet = [
        Taxi(taxi_id=i, capacity=capacity, loc=int(rng.integers(n)))
        for i in range(int(rng.integers(4, 16)))
    ]
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
