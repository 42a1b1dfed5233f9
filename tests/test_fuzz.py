"""Randomised end-to-end checks: simulator invariants under varied worlds.

Property-style tests over randomly drawn small scenarios, fleets and
parameters: whatever the draw, served trips respect deadlines, metrics
stay consistent, and schemes never corrupt taxi state.  ``window-lap``
draws its window, faults and rebalancing too, and every flush's bulk
screen is checked against the per-request search, with the runtime
contracts (the fleet table's included) armed by the suite.  Greedy
``mt-share`` / ``mt-share-pro`` runs and the window runs mirror every
partition-index and cluster-index write into the dict indexes they
replaced and check, at every candidate search, the arrivals matrix and
the cluster columns against those dicts and the search against the walk
over them.
"""

import math
from unittest import mock

import numpy as np
import pytest

from repro.analysis import contracts
from repro.config import SystemConfig
from repro.core.mobility_cluster import MobilityClusterIndex
from repro.core.mtshare import MTShare
from repro.core.payment import PaymentModel
from repro.core.window import WindowLAP
from repro.demand.dataset import TripDataset
from repro.demand.prediction import DemandPredictor
from repro.faults.plan import build_fault_plan, parse_fault_spec
from repro.fleet.rebalance import Rebalancer, parse_rebalance_spec
from repro.fleet.taxi import Taxi
from repro.index.partition_index import PartitionTaxiIndex
from repro.network import generators
from repro.network.generators import grid_city
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.bipartite import bipartite_partition
from repro.sim.engine import Simulator
from tests.oracles import (
    ReferenceClusterIndex,
    ReferencePartitionIndex,
    reference_candidate_taxis,
    taxi_cells,
)


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


def random_chaos_run(seed, rng, net, engine, part, scheme, landmarks, capacity, requests,
                     faults=None):
    """``scheme`` over a random fleet, with faults and rebalancing each
    drawn on or off (``faults=True`` forces faults on)."""
    fleet = random_fleet(rng, net.num_vertices, capacity)
    plan = None
    if rng.integers(0, 2) or faults:
        spec = parse_fault_spec(
            f"seed={seed},breakdown_rate={rng.uniform(0.05, 0.3):.2f},"
            f"cancel_rate={rng.uniform(0.0, 0.2):.2f},shock_windows={int(rng.integers(0, 3))}"
        )
        plan = build_fault_plan(spec, fleet, requests, net)
    rebalance = None
    if rng.integers(0, 2):
        predictor = DemandPredictor(rng.uniform(0.0, 5.0, size=(part.num_partitions, 24)))
        rebalance = Rebalancer(parse_rebalance_spec("on"), predictor, landmarks, engine, net)
    return Simulator(scheme, fleet, requests, payment=PaymentModel(), faults=plan,
                     rebalance=rebalance)


def random_window_run(seed: int):
    """A random city through ``window-lap``: the window drawn from
    0-120 s, faults and rebalancing each on or off."""
    rng, net, engine, part, config, capacity, requests = random_city(seed)
    config = config.replace(dispatch_window_s=float(rng.choice([0.0, 10.0, 30.0, 60.0, 120.0])))
    landmarks = LandmarkGraph(net, part.partitions, engine)
    scheme = WindowLAP(net, engine, config, part, landmarks=landmarks)
    sim = random_chaos_run(seed, rng, net, engine, part, scheme, landmarks, capacity, requests)
    mirror_indexes(scheme)
    return sim, scheme


@pytest.mark.parametrize("seed", range(12))
def test_random_window_run_screens_like_the_per_request_search(seed):
    """On every flush, row ``i`` of the bulk screen is exactly
    ``candidate_taxis(batch[i])``, taxi for taxi, in order (and that
    search is the reference walk, :func:`mirror_indexes`)."""
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


def mirror_indexes(scheme):
    """Mirror every write of ``scheme``'s partition and cluster indexes
    into a :class:`ReferencePartitionIndex` and a
    :class:`ReferenceClusterIndex`, and check at every candidate search
    that the arrivals matrix holds the reference lists and the cluster
    columns the reference cells, and that the search returns the
    reference walk's taxis in its order.  Returns the candidate count
    of each search so far."""
    index = scheme.partition_index
    reference = ReferencePartitionIndex(index.num_partitions)
    for name in ("update_taxi", "remove_taxi"):
        def mirrored(taxi_id, *args, _write=getattr(index, name), _name=name):
            _write(taxi_id, *args)
            getattr(reference, _name)(taxi_id, *args)
        setattr(index, name, mirrored)

    cindex = scheme.cluster_index
    clusters = ReferenceClusterIndex(cindex)
    update_taxi, remove_request = cindex.update_taxi, cindex.remove_request

    def mirrored_update(taxi_id, vec):
        cid = update_taxi(taxi_id, vec)
        assert clusters.update_taxi(taxi_id, vec) == cid
        return cid

    def mirrored_remove(request_id):
        clusters.remove_request(request_id)  # before: it reads the dissolving cluster
        remove_request(request_id)

    cindex.update_taxi, cindex.remove_request = mirrored_update, mirrored_remove

    matcher = scheme.matcher
    candidate_taxis = matcher.candidate_taxis
    dispatches = []

    def checked(request, fleet, now):
        for z, row in enumerate(index.arrivals.tolist()):
            listed = {
                taxi_id: arrival
                for taxi_id, arrival in zip(index.taxi_ids, row)
                if not math.isnan(arrival)
            }
            assert listed == reference.arrival_map(z), ("arrivals matrix", z, now)
        for taxi_id in index.taxi_ids:
            want = (clusters.cluster_of_taxi(taxi_id), clusters.taxi_unit(taxi_id))
            assert taxi_cells(cindex, taxi_id) == want, ("cluster columns", taxi_id, now)
        got = candidate_taxis(request, fleet, now)
        want = reference_candidate_taxis(matcher, reference, clusters, request, fleet, now)
        assert [t.taxi_id for t in got] == [t.taxi_id for t in want], ("walk", now)
        dispatches.append(len(got))
        return got

    matcher.candidate_taxis = checked
    return dispatches


def mirrored_greedy_run(seed: int, probabilistic: bool, faults=None):
    """A random city through greedy ``mt-share`` (``-pro``), faults and
    rebalancing each on or off, with its indexes mirrored and checked
    (:func:`mirror_indexes`).  Returns the simulator and the candidate
    count of each dispatch so far."""
    rng, net, engine, part, config, capacity, requests = random_city(seed)
    landmarks = LandmarkGraph(net, part.partitions, engine)
    scheme = MTShare(net, engine, config, part, probabilistic=probabilistic,
                     landmarks=landmarks)
    sim = random_chaos_run(seed, rng, net, engine, part, scheme, landmarks, capacity,
                           requests, faults=faults)
    return sim, mirror_indexes(scheme)


@pytest.mark.parametrize("probabilistic", (False, True), ids=("mt-share", "mt-share-pro"))
@pytest.mark.parametrize("seed", range(8))
def test_arrivals_matrix_is_the_partition_lists(seed, probabilistic):
    """At every dispatch the matrix and the cluster columns hold exactly
    the dict indexes, and the candidate search returns the dict walk's
    taxis in its order."""
    sim, dispatches = mirrored_greedy_run(seed, probabilistic)
    metrics = sim.run()
    assert dispatches and any(dispatches)
    assert metrics.completed == metrics.served


def test_a_remove_that_keeps_the_taxi_listed_fails_the_mirror(monkeypatch):
    """With ``remove_taxi`` a no-op a broken-down taxi stays listed, and
    the next dispatch's matrix check fails (contracts off, so the
    out-of-service contract does not fire first)."""
    monkeypatch.setattr(PartitionTaxiIndex, "remove_taxi", lambda index, taxi_id: None)
    monkeypatch.setattr(contracts, "_ENABLED", False)
    sim, _ = mirrored_greedy_run(1, probabilistic=False, faults=True)
    with pytest.raises(AssertionError, match="arrivals matrix"):
        sim.run()


def test_a_dissolution_that_keeps_its_cells_fails_the_mirror(monkeypatch):
    """With a dissolving cluster's ``cluster`` cells left set, the next
    dispatch's column check fails (contracts off, so the cluster-column
    contract does not fire first)."""
    remove_request = MobilityClusterIndex.remove_request

    def leaky(index, request_id):
        cells = index.cluster.copy()
        remove_request(index, request_id)
        index.cluster[...] = cells

    monkeypatch.setattr(MobilityClusterIndex, "remove_request", leaky)
    monkeypatch.setattr(contracts, "_ENABLED", False)
    sim, _ = mirrored_greedy_run(0, probabilistic=False)
    with pytest.raises(AssertionError, match="cluster columns"):
        sim.run()


def test_a_layout_registered_descending_fails_the_mirror(monkeypatch):
    """Greedy search emits its pool in column order, which must be
    ascending taxi id, the reference walk's order: lay the columns out
    descending and the first dispatch with two candidates fails."""
    register = PartitionTaxiIndex.register

    def descending(index, taxi_ids):
        register(index, taxi_ids)
        index.taxi_ids.reverse()
        index.column_of = {tid: k for k, tid in enumerate(index.taxi_ids)}

    monkeypatch.setattr(PartitionTaxiIndex, "register", descending)
    sim, _ = mirrored_greedy_run(1, probabilistic=False)
    with pytest.raises(AssertionError, match="walk"):
        sim.run()
