"""Tests for passenger-taxi matching (candidate search + Algorithm 1)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.contracts import check_cluster_columns, check_fleet_table
from repro.config import SystemConfig
from repro.core import matching
from repro.core.matching import Matcher, request_vector, taxi_vector, taxi_vector_with
from repro.core.mobility_cluster import ZERO_UNIT, MobilityClusterIndex, MobilityVector
from repro.core.mtshare import MTShare
from repro.core.partition_filter import PartitionFilter
from repro.core.routing import BasicRouter
from repro.demand.request import RideRequest
from repro.fleet.schedule import dropoff, pickup
from repro.fleet.table import FleetTable
from repro.fleet.taxi import Taxi
from repro.index.partition_index import PartitionTaxiIndex
from repro.network.landmarks import LandmarkGraph
from repro.obs import Instrumentation
from repro.partitioning.bipartite import MapPartitioning
from repro.sim.engine import Simulator
from tests.conftest import build_route, is_path, make_request
from tests.oracles import taxi_cells


class TinyWorld:
    """A bare matcher over the tiny grid partitioned by rows.

    :meth:`seat` registers a fleet the way ``MTShare.register_fleet``
    does: both indexes and a fleet table laid out over it, the table
    handed to the matcher, every taxi indexed.
    """

    def __init__(self, net, engine, router=None):
        self.net = net
        self.lg = LandmarkGraph(net, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], engine)
        config = SystemConfig(search_range_m=500.0, num_partitions=3)
        self.pindex = PartitionTaxiIndex(3)
        self.cindex = MobilityClusterIndex(lam=config.lam)
        if router is None:
            router = BasicRouter(net, engine, PartitionFilter(self.lg))
        self.matcher = Matcher(net, engine, self.lg, self.pindex, self.cindex, config, router)

    def seat(self, fleet, now=0.0):
        """Register ``fleet`` and index each taxi: by its route when it
        has one, parked at its partition otherwise, and by its mobility
        vector.  Returns ``fleet``."""
        self.pindex.register(fleet)
        self.cindex.register(self.pindex.column_of)
        for tid, taxi in fleet.items():
            route = taxi.route
            if route.nodes:
                self.pindex.update_taxi_from_route(
                    tid, route.nodes, route.times, self.lg.partition_of, now
                )
            else:
                self.pindex.place_idle_taxi(tid, self.lg.partition_of(taxi.loc), now)
            self.cindex.update_taxi(tid, taxi_vector(self.net, taxi, now))
        self.matcher.use_table(FleetTable([fleet[tid] for tid in self.pindex.taxi_ids]))
        return fleet


@pytest.fixture()
def world(tiny_net, tiny_engine):
    """A :class:`TinyWorld` with the partition-filtered basic router."""
    return TinyWorld(tiny_net, tiny_engine)


def trip(engine, origin, destination, rho=2.0, rid=0, release=0.0):
    return make_request(
        request_id=rid,
        release_time=release,
        origin=origin,
        destination=destination,
        direct_cost=engine.cost(origin, destination),
        rho=rho,
    )


def idle_taxi(taxi_id, loc, capacity=3):
    return Taxi(taxi_id=taxi_id, capacity=capacity, loc=loc)


class TestVectors:
    def test_request_vector(self, tiny_net, tiny_engine):
        r = trip(tiny_engine, 0, 8)
        v = request_vector(tiny_net, r)
        assert v.direction == (200.0, 200.0)

    def test_taxi_vector_none_when_empty(self, tiny_net):
        taxi = Taxi(taxi_id=0, capacity=3, loc=4)
        assert taxi_vector(tiny_net, taxi, 0.0) is None

    def test_taxi_vector_points_at_destination_centroid(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        taxi.assign(trip(tiny_engine, 0, 2, rid=1))
        taxi.assign(trip(tiny_engine, 0, 6, rid=2))
        v = taxi_vector(tiny_net, taxi, 0.0)
        # centroid of (200,0) and (0,200) is (100,100); origin (0,0)
        assert v.direction == (100.0, 100.0)

    def test_taxi_vector_with_includes_new_request(self, tiny_net, tiny_engine):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r = trip(tiny_engine, 0, 8, rid=5)
        v = taxi_vector_with(tiny_net, taxi, r, 0.0)
        assert v.direction == (200.0, 200.0)


class TestCandidateSearch:
    def test_idle_taxi_in_disc_is_candidate(self, world, tiny_engine):
        fleet = world.seat({0: idle_taxi(0, 0)})
        r = trip(tiny_engine, 1, 7)
        assert [t.taxi_id for t in world.matcher.candidate_taxis(r, fleet, 0.0)] == [0]

    def test_full_taxi_filtered(self, world, tiny_engine):
        taxi = idle_taxi(0, 0, capacity=1)
        fleet = world.seat({0: taxi})
        taxi.assign(trip(tiny_engine, 0, 2, rid=9))
        r = trip(tiny_engine, 1, 7)
        assert world.matcher.candidate_taxis(r, fleet, 0.0) == []

    def test_unreachable_taxi_filtered(self, world, tiny_engine):
        fleet = world.seat({0: idle_taxi(0, 8)})
        # rho barely above 1: nobody far away can make the pick-up.
        r = trip(tiny_engine, 0, 2, rho=1.01)
        assert world.matcher.candidate_taxis(r, fleet, 0.0) == []

    def test_busy_taxi_needs_alignment(self, world, tiny_engine, tiny_net):
        # Busy taxi heading east along the top row.
        taxi = Taxi(taxi_id=0, capacity=3, loc=6)
        r_old = trip(tiny_engine, 6, 8, rid=50)
        stops = [pickup(r_old), dropoff(r_old)]
        route = build_route(6, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.assign(r_old)
        taxi.set_plan(stops, route)
        fleet = world.seat({0: taxi})

        east = trip(tiny_engine, 6, 8, rid=1)
        west = trip(tiny_engine, 8, 6, rid=2)
        assert [t.taxi_id for t in world.matcher.candidate_taxis(east, fleet, 0.0)] == [0]
        assert world.matcher.candidate_taxis(west, fleet, 0.0) == []


class TestMatch:
    def test_single_idle_taxi_matched(self, world, tiny_engine, tiny_net):
        fleet = world.seat({0: idle_taxi(0, 0)})
        r = trip(tiny_engine, 1, 7)
        result = world.matcher.match(r, fleet, 0.0)
        assert result is not None
        assert result.taxi_id == 0
        assert result.num_candidates == 1
        # Route serves pickup then dropoff.
        assert [s.kind.value for s in result.stops] == ["pickup", "dropoff"]
        assert is_path(tiny_net, list(result.route.nodes))

    def test_picks_minimum_detour_taxi(self, world, tiny_engine):
        near = idle_taxi(0, 1)
        far = idle_taxi(1, 8)
        fleet = world.seat({0: near, 1: far})
        r = trip(tiny_engine, 1, 7)
        result = world.matcher.match(r, fleet, 0.0)
        assert result.taxi_id == 0  # zero deadhead wins

    def test_no_candidates_returns_none(self, world, tiny_engine):
        r = trip(tiny_engine, 1, 7)
        assert world.matcher.match(r, world.seat({}), 0.0) is None

    def test_detour_cost_reported(self, world, tiny_engine):
        fleet = world.seat({0: idle_taxi(0, 1)})
        r = trip(tiny_engine, 1, 7)
        result = world.matcher.match(r, fleet, 0.0)
        assert result.detour_cost == pytest.approx(tiny_engine.cost(1, 7))

    def test_shared_match_inserts_into_schedule(self, world, tiny_engine, tiny_net):
        taxi = Taxi(taxi_id=0, capacity=3, loc=0)
        r_old = trip(tiny_engine, 0, 8, rid=50, rho=2.5)
        stops = [pickup(r_old), dropoff(r_old)]
        route = build_route(0, 0.0, stops, tiny_engine.path, tiny_net.path_cost_s)
        taxi.assign(r_old)
        taxi.set_plan(stops, route)
        fleet = world.seat({0: taxi})

        # New rider along the same diagonal.
        r = trip(tiny_engine, 4, 8, rid=1, rho=2.5)
        result = world.matcher.match(r, fleet, 0.0)
        assert result is not None
        assert len(result.stops) == 4

    def test_insertion_for_taxi_offline_path(self, tiny_net, tiny_engine):
        scheme = _row_partitioned_mtshare(tiny_net, tiny_engine)
        taxi = Taxi(taxi_id=0, capacity=3, loc=1)
        scheme.register_fleet({0: taxi}, now=0.0)
        r = trip(tiny_engine, 1, 7)
        result = scheme.try_offline(taxi, r, 0.0)
        assert result is not None
        assert result.taxi_id == 0 and result.num_candidates == 1
        # Eq. 4 against an empty schedule: the whole trip is detour.
        assert result.detour_cost == pytest.approx(tiny_engine.cost(1, 7))
        # The partition-filtered router laid the legs out, as for an
        # online match, not the scheme's unfiltered fallback.
        assert scheme._basic_router.legs and not scheme._fallback_router.legs

    def test_insertion_for_full_taxi_is_none(self, tiny_net, tiny_engine):
        scheme = _row_partitioned_mtshare(tiny_net, tiny_engine)
        taxi = Taxi(taxi_id=0, capacity=1, loc=1)
        scheme.register_fleet({0: taxi}, now=0.0)
        taxi.assign(trip(tiny_engine, 1, 5, rid=9))
        r = trip(tiny_engine, 1, 7)
        assert scheme.try_offline(taxi, r, 0.0) is None


def _row_partitioned_mtshare(tiny_net, tiny_engine):
    """mT-Share over the tiny grid partitioned by rows, as ``TinyWorld``."""
    partitioning = MapPartitioning(np.arange(9) // 3, "grid")
    lg = LandmarkGraph(tiny_net, partitioning.partitions, tiny_engine)
    config = SystemConfig(search_range_m=500.0, num_partitions=3)
    return MTShare(tiny_net, tiny_engine, config, partitioning, landmarks=lg)


class InflatingRouter(BasicRouter):
    """Test double: routes planned from ``slow_node`` get ``penalty``
    seconds of extra travel time, modelling a router (probabilistic, or
    a lazy engine with partition-filter detours) whose concrete routes
    are worse than their shortest-path estimates."""

    def __init__(self, *args, slow_node: int, penalty: float, **kwargs):
        super().__init__(*args, **kwargs)
        self.slow_node = slow_node
        self.penalty = penalty
        self.calls = 0

    def route_for_schedule(self, start_node, start_time, stops, taxi_vector=None):
        self.calls += 1
        route = super().route_for_schedule(start_node, start_time, stops)
        if start_node != self.slow_node:
            return route
        from repro.fleet.taxi import TaxiRoute

        times = [route.times[0]] + [t + self.penalty for t in route.times[1:]]
        return TaxiRoute(
            nodes=route.nodes, times=times, stop_positions=route.stop_positions
        )


class TestWinnerByActualDetour:
    """Regression: ``match`` must pick the minimum *actual* planned-route
    detour, not the first candidate that survives route planning."""

    def test_worse_estimate_wins_on_actual_detour(self, tiny_net, tiny_engine):
        router = InflatingRouter(
            tiny_net, tiny_engine, None, slow_node=1, penalty=300.0
        )
        world = TinyWorld(tiny_net, tiny_engine, router)
        # Taxi 0 sits on the pick-up vertex: best estimated detour, but
        # its planned route is inflated by 300 s.  Taxi 1 is one hop
        # away with an exact route.
        on_origin = idle_taxi(0, 1)
        one_hop = idle_taxi(1, 2)
        fleet = world.seat({0: on_origin, 1: one_hop})
        r = trip(tiny_engine, 1, 7, rho=3.0)
        result = world.matcher.match(r, fleet, 0.0)
        assert result is not None
        # First-survivor selection would return taxi 0 here.
        assert result.taxi_id == 1
        assert result.detour_cost == pytest.approx(
            tiny_engine.cost(2, 1) + tiny_engine.cost(1, 7)
        )
        assert router.calls == 2  # both candidates were actually planned

    def test_early_exit_plans_one_route_when_estimates_are_exact(
        self, tiny_net, tiny_engine
    ):
        # With exact routes (full-APSP engine, no inflation) the first
        # candidate's actual detour equals its estimate, so no later
        # estimate can beat it and planning stops after one route.
        router = InflatingRouter(
            tiny_net, tiny_engine, None, slow_node=-1, penalty=0.0
        )
        world = TinyWorld(tiny_net, tiny_engine, router)
        fleet = world.seat({0: idle_taxi(0, 1), 1: idle_taxi(1, 8)})
        r = trip(tiny_engine, 1, 7, rho=3.0)
        result = world.matcher.match(r, fleet, 0.0)
        assert result.taxi_id == 0
        assert router.calls == 1

    def test_planning_cutoff_bounds_routes_planned(self, tiny_net, tiny_engine, monkeypatch):
        # Every candidate's route is inflated, so the estimate-based
        # early exit never triggers; the cutoff must stop planning.
        monkeypatch.setattr(matching, "MATCH_PLANNING_CUTOFF", 2)
        class SlowEverywhere(InflatingRouter):
            def route_for_schedule(self, start_node, start_time, stops,
                                   taxi_vector=None):
                self.slow_node = start_node
                return super().route_for_schedule(start_node, start_time, stops)

        slow = SlowEverywhere(tiny_net, tiny_engine, None, slow_node=-2,
                              penalty=500.0)
        world = TinyWorld(tiny_net, tiny_engine, slow)
        fleet = world.seat({
            0: idle_taxi(0, 1),
            1: idle_taxi(1, 2),
            2: idle_taxi(2, 4),
            3: idle_taxi(3, 0),
        })
        r = trip(tiny_engine, 1, 7, rho=3.0)
        result = world.matcher.match(r, fleet, 0.0)
        assert result is not None
        # Inflation keeps the estimate-based exit from firing (every
        # estimate beats every inflated actual), so the cutoff is what
        # stops planning: exactly 2 routes get planned.
        assert slow.calls == 2


class TestMatchObservability:
    def test_match_reports_stages_and_counters(self, tiny_net, tiny_engine):
        router = BasicRouter(tiny_net, tiny_engine, None)
        world = TinyWorld(tiny_net, tiny_engine, router)
        obs = Instrumentation()
        world.matcher.instrument(obs)
        router.instrument(obs)
        fleet = world.seat({0: idle_taxi(0, 1), 1: idle_taxi(1, 8)})
        r = trip(tiny_engine, 1, 7, rho=3.0)
        assert world.matcher.match(r, fleet, 0.0) is not None
        for stage in ("match.candidates", "match.insertion", "match.planning",
                      "route.basic"):
            assert obs.stages[stage].count >= 1
        assert obs.counters["match.candidates_found"] == 2
        assert obs.counters["match.insertions_evaluated"] >= 2
        assert obs.counters["match.routes_planned"] == 1


# ----------------------------------------------------------------------
# whole-window screening against the per-request search
# ----------------------------------------------------------------------
class ScreeningWorld:
    """A mid-run ``mt-share`` world to screen requests against.

    A real simulator is streamed ``warmup`` requests and pumped, so the
    partition lists, the mobility clusters and the taxi plans are what a
    run leaves behind at ``now`` — parked, busy, clustered and
    unclustered taxis in whatever mix the seed produces.  The scheme is
    ``window-lap`` at ``W = 0``, which decides as greedy ``mt-share``
    does; its fleet table is the one both screens read.
    """

    def __init__(self, scenario, seed, taxis=12, warmup=40, **config):
        self.rng = random.Random(seed)
        self.network, self.engine = scenario.network, scenario.engine
        self.scheme = scenario.make_scheme(
            "window-lap", config=scenario.default_config(dispatch_window_s=0.0, **config)
        )
        sim = Simulator(self.scheme, scenario.make_fleet(taxis, seed=seed), [])
        sim.stream_begin()
        self.warmup = scenario.requests(seed=seed)[:warmup]
        for request in self.warmup:
            sim.stream_submit(request)
        sim.stream_pump()
        self.fleet, self.now = sim.fleet, sim.kernel.now
        self.matcher, self.table = self.scheme.matcher, self.scheme._table
        self.pindex, self.cindex = self.scheme.partition_index, self.scheme.cluster_index
        self.lg = scenario.landmark_graph(num_partitions=self.scheme.config.num_partitions)

    def busy(self):
        return [t for t in self.fleet.values() if t.schedule and not t.out_of_service]

    def request(self, rid, origin, destination, rho=1.5, num_passengers=1, age_s=0.0):
        return make_request(
            request_id=10_000 + rid,
            release_time=max(0.0, self.now - age_s),
            origin=origin,
            destination=destination,
            direct_cost=self.engine.cost(origin, destination),
            rho=rho,
            num_passengers=num_passengers,
        )

    def random_request(self, rid):
        rng, n = self.rng, self.network.num_vertices
        return self.request(
            rid,
            rng.randrange(n),
            rng.randrange(n),
            rho=rng.uniform(1.0, 3.0),
            num_passengers=rng.choice([1, 1, 1, 2, 3]),
            age_s=rng.choice([0.0, rng.uniform(0.0, 45.0)]),
        )

    def everywhere(self, **kwargs):
        """One request out of every vertex (towards a far corner)."""
        n = self.network.num_vertices
        return [self.request(v, v, (v + n // 2 + 5) % n, **kwargs) for v in range(n)]

    # -- corners: each changes the world the next screen sees -----------
    def evict_broken(self):
        victim = self.rng.choice(sorted(self.fleet))
        self.fleet[victim].break_down()
        self.scheme.on_taxi_breakdown(self.fleet[victim], self.now)

    def dissolve_clusters(self):
        for request in self.warmup:
            self.cindex.remove_request(request.request_id)
        assert self.cindex.num_clusters == 0

    def unit_none(self):
        for taxi in self.busy():
            self.cindex.update_taxi(taxi.taxi_id, None)

    def unit_zero(self):
        for taxi in self.busy():
            x, y = (float(c) for c in self.network.xy[taxi.loc])
            self.cindex.update_taxi(taxi.taxi_id, MobilityVector(x, y, x, y))

    CORNERS = ("dissolve_clusters", "evict_broken", "unit_none", "unit_zero")

    def screen(self, batch):
        """``(bulk, scalar)``: per request the candidate ids in order, plus
        the ``kernel.batched_reach_checks`` tally, from each tier."""
        fleet = self.fleet
        check_fleet_table(self.table)
        check_cluster_columns(self.fleet, self.cindex)
        out = []
        for bulk in (True, False):
            obs = Instrumentation()
            self.matcher.instrument(obs)
            if bulk:
                screen = self.matcher.screen_window(batch, self.table, self.now)
                lists = [[screen.taxis[j] for j in np.flatnonzero(row)]
                         for row in screen.member]
                assert obs.counters.get("window.screened_pairs", 0) == len(batch) * len(fleet)
            else:
                lists = [self.matcher.candidate_taxis(r, fleet, self.now) for r in batch]
            assert all(taxi is fleet[taxi.taxi_id] for cands in lists for taxi in cands)
            out.append((
                [[taxi.taxi_id for taxi in cands] for cands in lists],
                obs.counters.get("kernel.batched_reach_checks", 0),
            ))
        return out


class TestBulkScreening:
    """``Matcher.screen_window`` returns, request by request, the taxis
    ``candidate_taxis`` returns, in its order, and counts the same exact
    reachability checks."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        sp_mode=st.sampled_from(("full", "lazy")),
        adaptive=st.booleans(),
        taxis=st.integers(1, 14),
        warmup=st.integers(0, 60),
        batch_size=st.integers(1, 24),
        corners=st.sets(st.sampled_from(ScreeningWorld.CORNERS)),
    )
    def test_bulk_equals_scalar_on_random_worlds(
        self, sp_mode_scenarios, seed, sp_mode, adaptive, taxis, warmup, batch_size, corners
    ):
        world = ScreeningWorld(
            sp_mode_scenarios[sp_mode], seed, taxis, warmup, mtshare_adaptive_gamma=adaptive
        )
        for corner in sorted(corners):
            getattr(world, corner)()
        batch = [world.random_request(i) for i in range(batch_size)]
        bulk, scalar = world.screen(batch)
        assert bulk == scalar

    @pytest.mark.parametrize("sp_mode", ("full", "lazy"))
    @pytest.mark.parametrize("adaptive", (True, False))
    def test_every_backend_and_search_range(self, sp_mode_scenarios, sp_mode, adaptive):
        world = ScreeningWorld(sp_mode_scenarios[sp_mode], 3, mtshare_adaptive_gamma=adaptive)
        assert world.engine.mode == sp_mode
        bulk, scalar = world.screen(world.everywhere(rho=1.4))
        assert bulk == scalar
        assert any(bulk[0]), "nobody is a candidate of anything"
        assert bulk[1] > 0, "no pair needed the exact reachability bound"

    def test_broken_down_taxi_evicted_from_the_index(self, test_scenario):
        world = ScreeningWorld(test_scenario, 4)
        before, _ = world.screen(world.everywhere())
        victim = next(tid for cands in before[0] for tid in cands)
        world.fleet[victim].break_down()
        world.scheme.on_taxi_breakdown(world.fleet[victim], world.now)
        assert victim in world.fleet
        assert np.isnan(world.pindex.arrivals[:, world.pindex.column_of[victim]]).all()
        bulk, scalar = world.screen(world.everywhere())
        assert bulk == scalar
        assert all(victim not in cands for cands in bulk[0])

    @pytest.mark.parametrize(
        "corners, cluster, unit",
        [
            (("dissolve_clusters",), None, "own"),
            (("unit_none",), None, None),
            (("unit_zero",), "any", ZERO_UNIT),
            (("dissolve_clusters", "unit_zero"), None, ZERO_UNIT),
        ],
    )
    def test_busy_taxi_alignment_corners(self, test_scenario, corners, cluster, unit):
        world = ScreeningWorld(test_scenario, 5, taxis=8, warmup=60)
        assert world.busy(), "no busy taxi to exercise Rule 1"
        for corner in corners:
            getattr(world, corner)()
        for taxi in world.busy():
            taxi_cluster, taxi_unit = taxi_cells(world.cindex, taxi.taxi_id)
            if cluster is None:
                assert taxi_cluster is None
            if unit == "own":
                assert taxi_unit not in (None, ZERO_UNIT)
            else:
                assert taxi_unit is unit
        # Every direction out of every vertex, plus the degenerate one.
        n = world.network.num_vertices
        batch = world.everywhere(rho=2.0) + [
            world.request(n + v, v, (v * 7 + 3) % n, rho=2.0) for v in range(n)
        ]
        bulk, scalar = world.screen(batch)
        assert bulk == scalar
        busy_ids = {taxi.taxi_id for taxi in world.busy()}
        seen = {tid for cands in bulk[0] for tid in cands} & busy_ids
        if unit is None:
            assert not seen, "a busy taxi without cluster or vector passed Rule 1"
        else:
            assert seen, "no busy taxi ever passed Rule 1"

    def test_zero_direction_request(self, test_scenario):
        world = ScreeningWorld(test_scenario, 5, taxis=8, warmup=60)
        n = world.network.num_vertices
        batch = [
            RideRequest(
                request_id=20_000 + v, release_time=world.now, origin=v, destination=v,
                deadline=world.now + 240.0, direct_cost=0.0,
            )
            for v in range(n)
        ]
        assert all(request_vector(world.network, r).direction == (0.0, 0.0) for r in batch)
        bulk, scalar = world.screen(batch)
        assert bulk == scalar
        busy_ids = {taxi.taxi_id for taxi in world.busy()}
        assert {tid for cands in bulk[0] for tid in cands} & busy_ids
        # ... also against busy taxis that have no vector at all.
        world.unit_none()
        bulk, scalar = world.screen(batch)
        assert bulk == scalar
        assert not {tid for cands in bulk[0] for tid in cands} & busy_ids

    def test_empty_pool(self, test_scenario):
        world = ScreeningWorld(test_scenario, 6, taxis=2, warmup=0)
        batch = world.everywhere(rho=1.0)  # no waiting budget: gamma = 0
        empty = [
            r for r in batch
            if not world.pindex.listed_columns(
                world.lg.partitions_intersecting_disc(*world.network.xy[r.origin].tolist(), 0.0)
            ).size
        ]
        assert empty and len(empty) < len(batch)
        bulk, scalar = world.screen(batch)
        assert bulk == scalar
        bulk, scalar = world.screen(empty)
        assert bulk == scalar == ([[] for _ in empty], 0)

    def test_index_arrival_exactly_at_the_pickup_deadline(self, test_scenario):
        world = ScreeningWorld(test_scenario, 5, taxis=8, warmup=60)
        cost = 64.0
        batch = []
        for z in range(world.lg.num_partitions):
            for arrival in world.pindex.arrivals[z].tolist():
                if math.isnan(arrival):
                    continue
                origin = world.lg.members(z)[0]
                destination = (origin + 17) % world.network.num_vertices
                for nudge in (0.0, 1e-9, -1e-9):  # at, just inside, just past
                    if arrival + nudge < 0.0:
                        continue
                    request = RideRequest(
                        request_id=30_000 + len(batch),
                        release_time=0.0,
                        origin=origin,
                        destination=destination,
                        deadline=arrival + nudge + cost,
                        direct_cost=cost,
                    )
                    if nudge == 0.0 and request.pickup_deadline != arrival:
                        break  # the float round trip missed; another pair will hit
                    batch.append(request)
        assert any(
            r.pickup_deadline == arrival
            for r in batch
            for arrival in world.pindex.arrivals[world.lg.partition_of(r.origin)].tolist()
        )
        bulk, scalar = world.screen(batch)
        assert bulk == scalar

    def test_exact_arrival_exactly_at_the_pickup_deadline(self, test_scenario):
        """The other side of Rule 3: a parked taxi the origin's partition
        does not list, whose shortest path gets it there on the dot."""
        world = ScreeningWorld(test_scenario, 5, taxis=8, warmup=60)
        now, cost = world.now, 64.0
        parked = [t for t in world.fleet.values() if t.idle and not t.cruising]
        assert parked
        batch, on_the_dot = [], []
        for taxi in parked:
            assert taxi.position_at(now) == (taxi.loc, now)
            for origin in range(0, world.network.num_vertices, 5):
                z = world.lg.partition_of(origin)
                if origin == taxi.loc or not math.isnan(
                    world.pindex.arrivals[z, world.pindex.column_of[taxi.taxi_id]]
                ):
                    continue
                arrival = now + world.engine.cost(taxi.loc, origin)
                for nudge in (0.0, 1e-9, -1e-9):
                    request = RideRequest(
                        request_id=40_000 + len(batch),
                        release_time=now,
                        origin=origin,
                        destination=(origin + 17) % world.network.num_vertices,
                        deadline=arrival + nudge + cost,
                        direct_cost=cost,
                    )
                    if nudge == 0.0:
                        if request.pickup_deadline != arrival:
                            break
                        on_the_dot.append((len(batch), taxi.taxi_id))
                    batch.append(request)
        assert on_the_dot
        bulk, scalar = world.screen(batch)
        assert bulk == scalar
        assert all(tid in bulk[0][row] for row, tid in on_the_dot)

    def test_group_against_nearly_full_taxi(self, test_scenario):
        world = ScreeningWorld(test_scenario, 5, taxis=8, warmup=60)
        nearly_full = [t for t in world.busy() if 0 < t.capacity - t.committed < t.capacity]
        assert nearly_full
        for seats in (1, 2, 3):
            bulk, scalar = world.screen(world.everywhere(rho=2.5, num_passengers=seats))
            assert bulk == scalar
            candidates = {tid for cands in bulk[0] for tid in cands}
            for taxi in nearly_full:
                if taxi.capacity - taxi.committed < seats:
                    assert taxi.taxi_id not in candidates
