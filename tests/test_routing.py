"""Tests for basic and probabilistic routing (Algorithms 3 and 4)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csgraph

from repro.analysis import contracts
from repro.baselines.base import DispatchScheme
from repro.core import mtshare, routing
from repro.core.mobility_cluster import MobilityVector
from repro.core.partition_filter import PartitionFilter
from repro.core.routing import (
    BasicRouter,
    ProbabilisticRouter,
    RouteInfeasible,
    compose_route,
)
from repro.fleet.schedule import dropoff, pickup
from repro.network.geo import cosine_similarity
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine
from repro.partitioning.transition import TransitionModel
from repro.sim.engine import Simulator
from tests import oracles
from tests.conftest import is_path, make_request
from tests.oracles import ReferenceProbabilisticRouter, reference_suitable_destinations
from tests.test_advance_index import _observe
from tests.test_geo import HYPOT_SPLIT
from tests.test_partition_filter import landmark_layouts, offset


@pytest.fixture(scope="module")
def row_lg(tiny_net, tiny_engine):
    return LandmarkGraph(tiny_net, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], tiny_engine)


@pytest.fixture(scope="module")
def tiny_model(row_lg):
    """Transition model over the tiny grid's 3 row-partitions.

    Vertex 7 (top middle) is the pick-up hotspot; trips from everywhere
    head to row 2.
    """
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    trips = np.array([[7, 8]] * 10 + [[1, 6]] * 3 + [[4, 2]] * 2)
    return TransitionModel.fit(trips, labels, 3)


def trip_request(engine, origin, destination, rho=1.5, release=0.0, rid=0):
    return make_request(
        request_id=rid,
        release_time=release,
        origin=origin,
        destination=destination,
        direct_cost=engine.cost(origin, destination),
        rho=rho,
    )


class TestComposeRoute:
    def test_single_leg(self, tiny_net):
        route = compose_route(tiny_net, 0, 10.0, [[0, 1, 2]])
        assert route.nodes == [0, 1, 2]
        assert route.stop_positions == [2]
        assert route.times[0] == 10.0

    def test_legs_must_chain(self, tiny_net):
        with pytest.raises(ValueError):
            compose_route(tiny_net, 0, 0.0, [[0, 1], [2, 5]])

    def test_stationary_leg(self, tiny_net):
        route = compose_route(tiny_net, 4, 0.0, [[4], [4, 5]])
        assert route.stop_positions == [0, 1]


class TestBasicRouter:
    def test_route_is_shortest(self, tiny_net, tiny_engine, row_lg):
        router = BasicRouter(tiny_net, tiny_engine, PartitionFilter(row_lg))
        r = trip_request(tiny_engine, 1, 7)
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)])
        assert route.total_cost() == pytest.approx(tiny_engine.cost(1, 7))
        assert is_path(tiny_net, route.nodes)

    def test_no_filter_works(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r = trip_request(tiny_engine, 0, 8)
        route = router.route_for_schedule(0, 0.0, [pickup(r), dropoff(r)])
        assert route.nodes[-1] == 8

    def test_deadline_violation_raises(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r = trip_request(tiny_engine, 1, 7, rho=1.01)
        # Start far away: even the shortest route misses the pick-up window.
        with pytest.raises(RouteInfeasible):
            router.route_for_schedule(2, 1e6, [pickup(r), dropoff(r)])

    def test_cost_matches_engine(self, tiny_net, tiny_engine, row_lg):
        router = BasicRouter(tiny_net, tiny_engine, PartitionFilter(row_lg))
        assert router.cost(0, 8) == tiny_engine.cost(0, 8)

    def test_lazy_engine_uses_filtered_dijkstra(self, tiny_net, row_lg):
        lazy = ShortestPathEngine(tiny_net, mode="lazy")
        router = BasicRouter(tiny_net, lazy, PartitionFilter(row_lg))
        path = router.leg_path(0, 8)
        assert is_path(tiny_net, path)
        assert path[0] == 0 and path[-1] == 8

    def test_multi_stop_schedule(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        r1 = trip_request(tiny_engine, 1, 7, rho=2.0, rid=1)
        r2 = trip_request(tiny_engine, 4, 8, rho=2.0, rid=2)
        stops = [pickup(r1), pickup(r2), dropoff(r1), dropoff(r2)]
        route = router.route_for_schedule(0, 0.0, stops)
        assert len(route.stop_positions) == 4
        # stop nodes line up
        for stop, pos in zip(stops, route.stop_positions):
            assert route.nodes[pos] == stop.node


class TestProbabilisticRouter:
    @pytest.fixture()
    def router(self, tiny_net, tiny_engine, row_lg, tiny_model):
        return ProbabilisticRouter(
            tiny_net, tiny_engine, PartitionFilter(row_lg), tiny_model, lam=0.0
        )

    def test_requires_filter(self, tiny_net, tiny_engine, tiny_model):
        with pytest.raises(ValueError):
            ProbabilisticRouter(tiny_net, tiny_engine, None, tiny_model)

    def test_without_vector_falls_back_to_basic(self, router, tiny_engine):
        r = trip_request(tiny_engine, 1, 7)
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)])
        assert route.total_cost() == pytest.approx(tiny_engine.cost(1, 7))

    def test_route_meets_deadlines(self, router, tiny_engine, tiny_net):
        r = trip_request(tiny_engine, 1, 7, rho=1.8)
        vec = MobilityVector(*tiny_net.xy[1], *tiny_net.xy[7])
        route = router.route_for_schedule(1, 0.0, [pickup(r), dropoff(r)], taxi_vector=vec)
        arrival = route.times[route.stop_positions[-1]]
        assert arrival <= r.deadline + 1e-6
        assert is_path(tiny_net, route.nodes)

    def test_infeasible_schedule_raises(self, router, tiny_engine):
        r = trip_request(tiny_engine, 1, 7, rho=1.01)
        vec = MobilityVector(0, 0, 0, 100)
        with pytest.raises(RouteInfeasible):
            router.route_for_schedule(2, 1e6, [pickup(r), dropoff(r)], taxi_vector=vec)

    def test_partition_probability_positive_towards_demand(self, router):
        # Direction north (towards row 2 where trips end): row 2's
        # pick-up hotspot (vertex 7) lies in partition 2.
        north = (0.0, 1.0)
        p = router._sector_entry(2, routing.heading_sector(north)).pi
        assert p >= 0.0

    def test_steers_through_hot_vertex_when_free(self, router, tiny_engine, tiny_net):
        # Trip 6 -> 8 (along the top row).  Shortest is 6-7-8 which
        # already passes the hotspot 7; with slack the route must still
        # be valid and end on time.
        r = trip_request(tiny_engine, 6, 8, rho=2.0)
        vec = MobilityVector(*tiny_net.xy[6], *tiny_net.xy[8])
        route = router.route_for_schedule(6, 0.0, [pickup(r), dropoff(r)], taxi_vector=vec)
        assert 7 in route.nodes

    def test_cruise_route(self, router):
        route = router.cruise_route(0, 0.0)
        assert route is not None
        assert route.stop_positions == []
        assert route.nodes[0] == 0
        assert len(route.nodes) >= 2
        # The cruise should end at a demand vertex (7, 1 or 4 have pickups).
        assert route.nodes[-1] in {7, 1, 4}

    def test_cruise_deterministic(self, router):
        a = router.cruise_route(0, 100.0)
        b = router.cruise_route(0, 100.0)
        assert a.nodes == b.nodes

    def test_cruise_from_hotspot_moves_on(self, router):
        route = router.cruise_route(7, 0.0)
        # Either relocates elsewhere or declines; never a zero-length route.
        assert route is None or len(route.nodes) >= 2


# ----------------------------------------------------------------------
# Algorithm 4's three tables against the per-leg evaluation they replaced
# ----------------------------------------------------------------------
class _World:
    """The non-peak test scenario's routing inputs, shared by fresh router pairs."""

    def __init__(self, scenario):
        config = scenario.default_config()
        part = scenario.partitioning("bipartite", config.num_partitions)
        self.net, self.engine = scenario.network, scenario.engine
        self.lg = scenario.landmark_graph("bipartite", config.num_partitions)
        self._model, self._lam = part.transition_model, config.lam
        self._steering_m = config.prob_steering_m

    def router(self, cls):
        return cls(self.net, self.engine, PartitionFilter(self.lg, lam=self._lam), self._model,
                   self._lam, self._steering_m)

    def vertex_in(self, z, k=0):
        return self.lg.members(z)[k]


@pytest.fixture(scope="module")
def world(test_nonpeak_scenario):
    return _World(test_nonpeak_scenario)


def heading(angle_deg, length_m=500.0):
    a = math.radians(angle_deg)
    return MobilityVector(0.0, 0.0, length_m * math.cos(a), length_m * math.sin(a))


def route_op(world, start, t, trips, vector):
    """``route_for_schedule`` over ``trips`` = ``(origin, destination, rho)``,
    all picked up before anyone is dropped."""
    requests = [
        trip_request(world.engine, o, d, rho=rho, release=t, rid=i)
        for i, (o, d, rho) in enumerate(trips)
    ]
    stops = [pickup(r) for r in requests] + [dropoff(r) for r in requests]
    return ("route", start, t, stops, vector)


def _apply(router, op):
    if op[0] == "cruise":
        route = router.cruise_route(op[1], op[2])
    else:
        try:
            route = router.route_for_schedule(op[1], op[2], op[3], taxi_vector=op[4])
        except RouteInfeasible:
            return "infeasible"
    return None if route is None else (route.nodes, route.times, route.stop_positions)


def play(world, ops):
    """``ops`` through a fresh production router and a fresh oracle;
    every outcome and the filled sector entries must be equal."""
    fast = world.router(ProbabilisticRouter)
    oracle = world.router(ReferenceProbabilisticRouter)
    for op in ops:
        assert _apply(fast, op) == _apply(oracle, op), op[:3]
    assert {key: entry.dests for key, entry in fast._sectors.items()} == oracle._pd_cache
    assert fast.fallbacks == oracle.fallbacks
    # The oracle ran none of the mechanism under test: its leg memo
    # holds basic (u, v) legs only.
    assert not oracle.sector_entries and not oracle.corridor_lists and not oracle.corridor_graphs
    assert all(len(key) == 2 for key in oracle.legs)
    # Each stored leg carries the hop times a fresh read gives, and a
    # weighted leg its total too (a basic leg's one reader sums it).
    net = world.net
    for key, leg in fast.legs.items():
        assert leg is routing.NO_LEG or (
            leg.costs == [net.edge_cost(a, b) for a, b in zip(leg.path, leg.path[1:])]
            and (leg.cost_s == net.path_cost_s(leg.path) if len(key) == 4
                 else math.isnan(leg.cost_s))
        )
    return fast, oracle


@st.composite
def _ops(draw):
    # A handful of vertices and headings per example, so a drawn
    # sequence revisits legs, corridors and sectors — and the same
    # corridor under different sectors.
    vertex = st.sampled_from(draw(st.lists(
        st.integers(min_value=0, max_value=143), min_size=2, max_size=4, unique=True
    )))
    clock = st.floats(min_value=0.0, max_value=86400.0)
    trip = st.tuples(vertex, vertex, st.sampled_from([1.0, 1.2, 1.5, 3.0]))
    vector = st.sampled_from(
        [MobilityVector(0.0, 0.0, 0.0, 0.0)]
        + draw(st.lists(st.builds(heading, st.floats(min_value=-180.0, max_value=180.0)),
                        min_size=1, max_size=4))
    )
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("cruise"), vertex, clock),
            st.tuples(st.just("route"), vertex, clock,
                      st.lists(trip, min_size=1, max_size=2), vector),
        ),
        min_size=1, max_size=20,
    ))


@settings(max_examples=60, deadline=None)
@given(ops=_ops(), graph_capacity=st.sampled_from([1, None]),
       leg_capacity=st.sampled_from([1, None]))
def test_probabilistic_router_matches_per_leg_oracle(world, ops, graph_capacity, leg_capacity):
    ops = [op if op[0] == "cruise" else route_op(world, *op[1:]) for op in ops]
    capacity = graph_capacity or routing.CORRIDOR_GRAPH_CACHE_SIZE
    legs = leg_capacity or routing.LEG_CACHE_SIZE
    with mock.patch.object(routing, "CORRIDOR_GRAPH_CACHE_SIZE", capacity), \
            mock.patch.object(routing, "LEG_CACHE_SIZE", legs):
        fast, _ = play(world, ops)
    assert len(fast.corridor_graphs) <= capacity and len(fast.legs) <= legs


@pytest.mark.parametrize("leg_capacity", [1, None], ids=["legs1", "legs-default"])
def test_cruises_and_planned_legs_replay_at_any_leg_capacity(world, leg_capacity):
    """A sweep of cruises and planned legs, played twice: the second
    pass reads every weighted leg back (at the shipped capacity) or
    recomputes it (at capacity 1), and routes are ``==`` either way."""
    ops = sweep(world, 3, 4, 3.0)
    capacity = leg_capacity or routing.LEG_CACHE_SIZE
    searches = []
    shortest_path = routing.CorridorGraph.shortest_path

    def searching(graph, source, target):
        searches.append((source, target))
        return shortest_path(graph, source, target)

    with mock.patch.object(routing, "LEG_CACHE_SIZE", capacity), \
            mock.patch.object(routing.CorridorGraph, "shortest_path", searching):
        fast, _ = play(world, ops)
    weighted = [key for key in fast.legs if len(key) == 4]
    assert len(fast.legs) <= capacity
    if leg_capacity is None:
        # Each (u, v, corridor, sector) was searched once, the cruises'
        # zero-heading sector among them; a corridor's disconnection
        # (NO_LEG) is remembered as well.
        assert len(searches) == len(weighted) == len(set(weighted))
        assert any(key[3] == routing.NUM_SECTORS for key in weighted)
        assert fast.legs.hits > len(weighted)
    else:
        assert fast.legs.evictions > 100 and len(searches) > len(ops)


def test_a_disconnected_corridor_is_remembered(world, monkeypatch):
    """A PathNotFound leg is stored as NO_LEG and replays as ``None``."""
    router = world.router(ProbabilisticRouter)
    u, v = world.vertex_in(0), world.vertex_in(9)

    def unreachable(graph, source, target):
        raise routing.PathNotFound("cut")

    monkeypatch.setattr(routing.CorridorGraph, "shortest_path", unreachable)
    corridor = (world.lg.partition_of(u), world.lg.partition_of(v))
    assert router._weighted_leg(u, v, corridor, 3) is None
    assert router.legs[(u, v, corridor, 3)] is routing.NO_LEG
    monkeypatch.undo()
    assert router._weighted_leg(u, v, corridor, 3) is None
    assert router.legs.hits == 1


def test_contracts_armed_nonpeak_run_is_the_same_at_leg_capacity_one(
    test_nonpeak_scenario, monkeypatch
):
    """An ``mt-share-pro`` non-peak run with the runtime contracts on:
    every decision, trip, fare and counter is the same with a leg memo
    of one entry as with the shipped one."""
    assert contracts.enabled()
    expected, m = _observe(Simulator, test_nonpeak_scenario, "mt-share-pro", "plain", False)
    monkeypatch.setattr(routing, "LEG_CACHE_SIZE", 1)
    got, small = _observe(Simulator, test_nonpeak_scenario, "mt-share-pro", "plain", False)
    assert got == expected
    assert m.stages["route.probabilistic"]["count"] > 0 and m.counters["kernel.legcache_hits"] > 0
    assert small.counters["kernel.legcache_evictions"] > 100
    assert small.counters["kernel.corridor_graph_hits"] > m.counters["kernel.corridor_graph_hits"]


# ----------------------------------------------------------------------
# The cruise draw and step 1's row fill
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       weights=st.lists(st.one_of(st.floats(min_value=1e-300, max_value=1e6),
                                  st.sampled_from([5e-324, 1e-310, 1e-200])),
                        min_size=1, max_size=40))
@example(seed=0, weights=[1.0])
@example(seed=7, weights=[5e-324, 1.0, 5e-324])
@example(seed=3, weights=[1e-300, 1e-310, 1e-300])
def test_cruise_draw_is_generator_choice(seed, weights):
    """``choice_cdf`` plus one ``searchsorted`` is ``rng.choice(p=...)``'s draw."""
    w = np.array(weights)
    cdf = routing.choice_cdf(w)
    drawn = int(cdf.searchsorted(np.random.default_rng(seed).random(), side="right"))
    assert drawn == np.random.default_rng(seed).choice(len(w), p=w / w.sum())


@st.composite
def step1_cases(draw):
    """A landmark layout, a partition and a ``lambda`` — half the time
    the scalar cosine of one of its offsets with one sector's heading."""
    xy = draw(landmark_layouts())
    pi = draw(st.integers(0, len(xy) - 1))
    if draw(st.booleans()):
        pa = draw(st.integers(0, len(xy) - 1))
        sector = draw(st.integers(0, routing.NUM_SECTORS))
        lam = cosine_similarity(*offset(xy, pa, pi), *routing.sector_direction(sector))
    else:
        lam = draw(st.floats(-1.0, 1.0))
    return xy, pi, lam


@settings(max_examples=200, deadline=None)
@given(case=step1_cases())
@example(case=(np.array([(0.0, 0.0), HYPOT_SPLIT]), 0,
               cosine_similarity(*HYPOT_SPLIT, *routing.sector_direction(8))))
@example(case=(np.array([(1.0, 1.0), (1.0, 1.0), (1.0 + 2**-52, 1.0)]), 0, 0.9))
def test_step1_row_fill_is_the_scalar_loop(case):
    xy, pi, lam = case
    assert routing.suitable_rows(xy, pi, lam) == [
        reference_suitable_destinations(xy, pi, routing.sector_direction(sector), lam)
        for sector in range(routing.NUM_SECTORS + 1)
    ]


# A taxi heading west-south-west and the zero vector a cruise passes:
# under lam = 0.707 the two disagree on every partition's suitable
# destinations (the zero vector suits all of them).
_WSW = heading(-170.0)


def test_zero_heading_has_a_sector_of_its_own(world):
    assert routing.heading_sector(_WSW.direction) == 0
    assert routing.heading_sector((0.0, 0.0)) == routing.NUM_SECTORS
    for sector in range(routing.NUM_SECTORS + 1):
        assert routing.heading_sector(routing.sector_direction(sector)) == sector
    cruises = [("cruise", v, 7.5 * 3600.0 + v) for v in range(0, 144, 5)]
    taxis = [route_op(world, v, 100.0, [(v, 143 - v, 3.0)], _WSW) for v in range(0, 60, 7)]
    kappa = world.lg.num_partitions
    for ops in (cruises + taxis, taxis + cruises):
        fast, _ = play(world, ops)
        assert sum(_apply(fast, op) is not None for op in cruises) > 10
        by_sector = {0: [], routing.NUM_SECTORS: []}
        for (pi, sector), entry in fast._sectors.items():
            by_sector[sector].append(entry.dests == [pa for pa in range(kappa) if pa != pi])
        assert by_sector[routing.NUM_SECTORS] and all(by_sector[routing.NUM_SECTORS])
        assert by_sector[0] and not any(by_sector[0])


def test_sector_entries_equal_a_fresh_centre_evaluation_in_any_call_order(world):
    """Step 1 is a function of (partition, sector): headings at both
    ends of one sector, asked in either order, fill the table with what
    a fresh router evaluates at the sector's centre."""
    # Both ends of the 22.5-degree sector that starts at 0 degrees.
    low, high = heading(0.5), heading(22.0)
    assert routing.heading_sector(low.direction) == routing.heading_sector(high.direction) == 8
    trips = [(v, (v * 37 + 11) % 144, 3.0) for v in range(0, 144, 9)]
    for first, second in ((low, high), (high, low)):
        ops = [route_op(world, o, 0.0, [(o, d, rho)], vector)
               for vector in (first, second) for o, d, rho in trips]
        fast, _ = play(world, ops)
        assert len(fast._sectors) > world.lg.num_partitions // 2
        for (pi, sector), entry in fast._sectors.items():
            fresh = world.router(ProbabilisticRouter)._sector_entry(pi, sector)
            assert entry.dests == fresh.dests and entry.pi == fresh.pi
            assert entry.psi.tobytes() == fresh.psi.tobytes()


def test_one_leg_under_every_heading(world):
    """The same corridors under all sixteen sectors: corridor order
    (step 2) and edge weights (step 3) are per sector, not per corridor."""
    u, v = world.vertex_in(0), world.vertex_in(9)
    ops = [route_op(world, u, 0.0, [(u, v, 3.0)], heading(-179.0 + 22.5 * k)) for k in range(16)]
    fast, _ = play(world, ops + ops)
    pz, pz1 = world.lg.partition_of(u), world.lg.partition_of(v)
    lists = [fast.corridor_lists[(pz, pz1, sector)] for sector in range(16)]
    assert len({tuple(corridors) for corridors in lists}) > 1
    routes = {tuple(_apply(fast, op)[0]) for op in ops}
    assert len(routes) > 1


def sweep(world, cruise_step, route_step, turn_deg):
    """Cruises and one-trip routes from across the city, headings fanned
    out by ``turn_deg`` per vertex: many distinct corridors and sectors."""
    ops = [("cruise", v, 3600.0 + v) for v in range(0, 144, cruise_step)]
    ops += [route_op(world, v, 50.0, [(v, (v * 37 + 11) % 144, 2.0)], heading(turn_deg * v))
            for v in range(0, 144, route_step)]
    return ops + ops  # the second pass reads what the first one stored


def test_every_search_runs_on_bit_equal_edge_weights(world, monkeypatch):
    """The stored graphs are the matrices the weight closure built: the
    in-tree search reads, call for call, the bytes the reference router
    hands scipy, from the same source.  The leg memo is emptied before
    each op, so every weighted leg is searched on both sides."""
    searched, handed = [], []
    shortest_path = routing.CorridorGraph.shortest_path
    dijkstra = csgraph.dijkstra

    def searching(graph, source, target):
        if source != target:  # the reference returns before calling scipy
            searched.append((np.array(graph.weights, dtype=np.float64).tobytes(),
                             np.array(graph.indices, dtype=np.int32).tobytes(),
                             np.array(graph.indptr, dtype=np.int32).tobytes(),
                             graph.local_of(source)))
        return shortest_path(graph, source, target)

    def recording(matrix, **kwargs):
        handed.append((matrix.data.tobytes(), matrix.indices.tobytes(),
                       matrix.indptr.tobytes(), kwargs["indices"]))
        return dijkstra(matrix, **kwargs)

    monkeypatch.setattr(routing.CorridorGraph, "shortest_path", searching)
    monkeypatch.setattr(csgraph, "dijkstra", recording)
    for cls in (ProbabilisticRouter, ReferenceProbabilisticRouter):
        router = world.router(cls)
        for op in sweep(world, 7, 5, 7.0):
            router.legs.clear()
            _apply(router, op)
    # One list per side: a scipy call by production or an in-tree search
    # by the reference would misalign them.
    assert searched == handed and len(searched) > 100


def test_leg_inside_one_partition(world):
    pz = max(range(world.lg.num_partitions), key=lambda z: len(world.lg.members(z)))
    u, v = world.vertex_in(pz, 0), world.vertex_in(pz, -1)
    fast, _ = play(world, [route_op(world, u, 0.0, [(u, v, 2.0)], heading(45.0))] * 2)
    assert fast.corridor_lists[(pz, pz, routing.heading_sector(heading(45.0).direction))] == [(pz,)]


def test_corridor_enumeration_truncated_by_the_dfs_budget(world):
    """Some partition pair has more simple landmark paths than
    ``MAX_ENUMERATED_PATHS``; its corridor list is what the budget left."""
    unbounded = world.router(ReferenceProbabilisticRouter)
    kappa = world.lg.num_partitions
    with mock.patch.object(oracles, "MAX_ENUMERATED_PATHS", 10**9), \
            mock.patch.object(oracles, "MAX_ATTEMPTS", 10**9):
        pz, pz1 = next(
            (a, b) for a in range(kappa) for b in range(kappa)
            if a != b and len(unbounded._corridors(
                unbounded._filter.filter_partitions(a, b), a, b, {}
            )) > routing.MAX_ENUMERATED_PATHS
        )
    u, v = world.vertex_in(pz), world.vertex_in(pz1)
    vector = MobilityVector(*world.net.xy[u], *world.net.xy[v])
    fast, _ = play(world, [route_op(world, u, 0.0, [(u, v, 3.0)], vector)] * 2)
    assert len(fast.corridor_lists[(pz, pz1, routing.heading_sector(vector.direction))]) == 5


def test_leg_whose_every_corridor_busts_the_slack_takes_the_shortest_path(world):
    """rho = 1 leaves no slack: every steered leg that is longer than
    the shortest path is refused and ``leg_path`` is taken."""
    oracle = world.router(ReferenceProbabilisticRouter)
    lg = world.lg

    def all_corridors_detour(u, v, direction):
        retained = oracle._filter.filter_partitions(lg.partition_of(u), lg.partition_of(v))
        weight = {pi: oracle.partition_probability(pi, direction) for pi in retained}
        legs = [oracle._weighted_leg(u, v, corridor, direction) for corridor in
                oracle._corridors(retained, lg.partition_of(u), lg.partition_of(v), weight)]
        shortest = world.engine.cost(u, v)
        return legs and all(
            leg is None or world.net.path_cost_s(leg) > shortest + 1e-9 for leg in legs
        )

    u, v, vector = next(
        (u, v, vector)
        for u in range(0, 144, 3) for v in range(1, 144, 5)
        for vector in [MobilityVector(*world.net.xy[u], *world.net.xy[v])]
        if u != v and all_corridors_detour(u, v, vector.direction)
    )
    op = route_op(world, u, 0.0, [(u, v, 1.0)], vector)
    fast, _ = play(world, [op, op])
    nodes, _times, _positions = _apply(fast, op)
    assert nodes == world.engine.path(u, v)


def test_graph_memo_of_one_entry_rebuilds_the_same_routes(world, monkeypatch):
    """Eviction may move speed, never a route."""
    monkeypatch.setattr(routing, "CORRIDOR_GRAPH_CACHE_SIZE", 1)
    fast, _ = play(world, sweep(world, 3, 4, 3.0))
    graphs = fast.corridor_graphs
    assert len(graphs) == 1 and graphs.evictions > 20 and graphs.misses > graphs.evictions


# ----------------------------------------------------------------------
# ... and whole runs, decision for decision
# ----------------------------------------------------------------------
@pytest.mark.parametrize("streamed", [False, True], ids=["batch", "streamed"])
@pytest.mark.parametrize("variant", ["plain", "faults"])
@pytest.mark.parametrize("scheme", ["mt-share-pro", "t-share+prob"])
def test_whole_run_matches_per_leg_oracle(
    test_nonpeak_scenario, monkeypatch, scheme, variant, streamed
):
    cruises = []
    maybe_cruise = DispatchScheme.maybe_cruise

    def counting(self, taxi, now):
        started = maybe_cruise(self, taxi, now)
        cruises.append(started)
        return started

    monkeypatch.setattr(DispatchScheme, "maybe_cruise", counting)
    got, m = _observe(Simulator, test_nonpeak_scenario, scheme, variant, streamed)
    started = sum(cruises)
    cruises.clear()
    for module in (routing, mtshare):  # where schemes look the class up
        monkeypatch.setattr(module, "ProbabilisticRouter", ReferenceProbabilisticRouter)
    expected, oracle_m = _observe(Simulator, test_nonpeak_scenario, scheme, variant, streamed)
    for key, value in expected.items():
        assert got[key] == value, key
    assert sum(cruises) == started > 0
    # Not vacuous: probabilistic plans were made and street hails served
    # — through the tables in one run, past them in the other.
    assert m.stages["route.probabilistic"]["count"] > 0 and m.served_offline > 0
    assert m.stages["route.probabilistic"]["count"] == (
        oracle_m.stages["route.probabilistic"]["count"]
    )
    assert m.counters["kernel.corridor_graph_hits"] > 0 and m.counters["route.sector_entries"] > 0
    assert oracle_m.counters["kernel.corridor_graph_misses"] == 0
    assert oracle_m.counters["route.sector_entries"] == 0
