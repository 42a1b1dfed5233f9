"""Shared fixtures: tiny deterministic networks and a small scenario, plus
the network and route builders the unit tests use as tools."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.analysis import contracts
from repro.artifacts import ARTIFACT_DIR_ENV
from repro.demand.request import RideRequest
from repro.fleet.taxi import TaxiError, TaxiRoute
from repro.network.generators import grid_city
from repro.network.graph import DEFAULT_SPEED_MPS, RoadNetwork
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.bipartite import bipartite_partition
from repro.sim.engine import Simulator
from repro.sim.kernel import Kernel
from repro.sim.scenario import ScenarioSpec, get_scenario


def small_test_network(speed_mps: float = DEFAULT_SPEED_MPS) -> RoadNetwork:
    """Tiny deterministic 3x3 bidirectional grid used across the test suite.

    Vertex layout (ids), spacing 100 m::

        6 7 8
        3 4 5
        0 1 2
    """
    xy = [(100.0 * (i % 3), 100.0 * (i // 3)) for i in range(9)]
    edges: list[tuple[int, int]] = []
    for r in range(3):
        for c in range(3):
            u = 3 * r + c
            if c < 2:
                edges += [(u, u + 1), (u + 1, u)]
            if r < 2:
                edges += [(u, u + 3), (u + 3, u)]
    return RoadNetwork(xy, edges, speed_mps=speed_mps)


def is_path(network, path) -> bool:
    """Whether consecutive vertices in ``path`` are joined by edges."""
    indptr, indices, _lengths = network.csr_arrays
    return all(v in indices[indptr[u]:indptr[u + 1]] for u, v in zip(path, path[1:]))


def build_route(start_node, start_time, stops, path_fn, cost_of_path) -> TaxiRoute:
    """Concatenate per-leg paths into a full route (the paper's ``|><|``).

    ``path_fn(u, v)`` returns the vertex path between two vertices (both
    inclusive); ``cost_of_path`` prices a vertex path in seconds
    (normally ``network.path_cost_s``).
    """
    nodes = [start_node]
    times = [start_time]
    stop_positions: list[int] = []
    for stop in stops:
        leg = path_fn(nodes[-1], stop.node)
        if not leg or leg[0] != nodes[-1] or leg[-1] != stop.node:
            raise TaxiError(
                f"path_fn returned an invalid leg {leg!r} for "
                f"({nodes[-1]} -> {stop.node})"
            )
        t = times[-1]
        for u, v in zip(leg, leg[1:]):
            t += cost_of_path([u, v])
            nodes.append(v)
            times.append(t)
        stop_positions.append(len(nodes) - 1)
    return TaxiRoute(nodes=nodes, times=times, stop_positions=stop_positions)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_store(tmp_path_factory):
    """Keep test artifacts out of the user's real store.

    Unless the caller pinned a store location explicitly, the whole
    session runs against a throwaway directory (still exercising the
    persistence paths, but hermetically).
    """
    if os.environ.get(ARTIFACT_DIR_ENV):
        yield
        return
    os.environ[ARTIFACT_DIR_ENV] = str(tmp_path_factory.mktemp("artifact-store"))
    yield
    os.environ.pop(ARTIFACT_DIR_ENV, None)


@pytest.fixture(scope="session", autouse=True)
def _contracts_on():
    """Run the whole suite with runtime invariant contracts enabled.

    Every simulation in the tier-1 tests then exercises the schedule /
    clock / accounting contracts (see repro.analysis.contracts).  An
    explicit ``REPRO_CONTRACTS=0`` still wins, so the disabled path can
    be measured.
    """
    if os.environ.get(contracts.ENV_VAR, "").strip().lower() in ("0", "false", "off"):
        yield
        return
    previous = contracts.enabled()
    contracts.enable(True)
    yield
    contracts.enable(previous)


@pytest.fixture(scope="session")
def tiny_net():
    """3x3 deterministic bidirectional grid (100 m spacing)."""
    return small_test_network()


@pytest.fixture(scope="session")
def tiny_engine(tiny_net):
    """Full-APSP engine over the tiny network."""
    return ShortestPathEngine(tiny_net)


@pytest.fixture(scope="session")
def small_net():
    """A 10x10 perturbed city used where a bit more structure is needed."""
    return grid_city(rows=10, cols=10, spacing_m=150.0, seed=5)


@pytest.fixture(scope="session")
def small_engine(small_net):
    return ShortestPathEngine(small_net)


@pytest.fixture(scope="session")
def small_trips(small_net):
    """Synthetic historical OD pairs over the small network."""
    rng = np.random.default_rng(11)
    return rng.integers(0, small_net.num_vertices, size=(3000, 2))


@pytest.fixture(scope="session")
def small_partitioning(small_net, small_trips):
    return bipartite_partition(
        small_net, small_trips, num_partitions=10, num_transition_clusters=4, seed=2
    )


@pytest.fixture(scope="session")
def small_landmarks(small_net, small_partitioning, small_engine):
    return LandmarkGraph(small_net, small_partitioning.partitions, small_engine)


@pytest.fixture(scope="session")
def test_spec():
    """A scenario spec small enough for per-test simulations."""
    return ScenarioSpec(
        kind="peak",
        grid_rows=12,
        grid_cols=12,
        spacing_m=180.0,
        hourly_requests=250,
        history_days=2,
        num_partitions=16,
        offline_count=40,
        seed=3,
    )


@pytest.fixture(scope="session")
def test_nonpeak_spec():
    return ScenarioSpec(
        kind="nonpeak",
        grid_rows=12,
        grid_cols=12,
        spacing_m=180.0,
        hourly_requests=250,
        history_days=2,
        num_partitions=16,
        offline_count=40,
        seed=3,
    )


@pytest.fixture(scope="session")
def test_scenario(test_spec):
    return get_scenario(test_spec)


@pytest.fixture(scope="session")
def test_nonpeak_scenario(test_nonpeak_spec):
    return get_scenario(test_nonpeak_spec)


@pytest.fixture(scope="session")
def sp_mode_scenarios(test_spec, test_scenario):
    """The test scenario on each routing backend, keyed by ``sp_mode``."""
    return {
        "full": test_scenario,
        "lazy": get_scenario(dataclasses.replace(test_spec, sp_mode="lazy")),
    }


@pytest.fixture
def full_simulator_subscriptions(test_scenario, monkeypatch):
    """``(kind, handler)`` pairs subscribed by a ``Simulator`` with every
    optional subsystem on (``window-lap`` + ``--rebalance on``), recorded
    at ``Kernel.subscribe`` the way the out-of-tree tracer hooks it."""
    seen = []
    subscribe = Kernel.subscribe

    def recording(self, kind, handler):
        seen.append((kind, handler))
        subscribe(self, kind, handler)

    monkeypatch.setattr(Kernel, "subscribe", recording)
    Simulator(
        test_scenario.make_scheme("window-lap"),
        test_scenario.make_fleet(5, seed=1),
        [],
        rebalance=test_scenario.rebalance_policy("on"),
    )
    return seen


def make_request(
    request_id=0,
    release_time=0.0,
    origin=0,
    destination=8,
    direct_cost=100.0,
    rho=1.3,
    offline=False,
    num_passengers=1,
):
    """Request factory with permissive defaults for unit tests."""
    request = RideRequest.from_flexible_factor(
        request_id=request_id,
        release_time=release_time,
        origin=origin,
        destination=destination,
        direct_cost=direct_cost,
        rho=rho,
        offline=offline,
    )
    return dataclasses.replace(request, num_passengers=num_passengers)


@pytest.fixture
def request_factory():
    return make_request
