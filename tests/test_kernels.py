"""Kernel-equivalence property tests.

The fast paths (batched cost queries, tiered insertion scoring,
CSR-subgraph restricted Dijkstra, the in-tree corridor search) must be
*bit-identical* to the scalar references: same costs, same feasibility
masks, same chosen schedules.  Every test here drives both over
randomized small networks and diffs the results exactly — no
``approx`` — in both ``full`` and ``lazy`` engine modes.  Insertion
scoring has one entry point, ``score_insertions``;
:func:`_score_both_tiers` forces it to each side of its tier threshold
and diffs both against the scalar oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

import repro.fleet.schedule as schedule_mod
from repro.core.matching import best_insertion_for_taxi, score_candidates
from repro.core.mobility_cluster import (
    ZERO_UNIT,
    MobilityClusterIndex,
    MobilityVector,
    direction_unit,
    unit_similarity,
)
from repro.core.routing import BasicRouter, CorridorGraph, compose_route
from repro.demand.request import RideRequest
from repro.fleet.schedule import (
    dropoff,
    enumerate_insertions,
    evaluate_insertions_grouped,
    materialize_insertion,
    num_insertions,
    pickup,
    score_insertions,
)
from repro.fleet.table import Planning
from repro.network.generators import grid_city
from repro.network.geo import cosine_similarity
from repro.network.graph import RoadNetwork
from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import PathNotFound, ShortestPathEngine, dijkstra_restricted
from repro.obs import NULL, Instrumentation

from tests.oracles import (
    oracle_instances,
    oracle_score_insertions,
    reference_corridor_path,
    reference_dijkstra,
    weighted_matrix,
)


@pytest.fixture(scope="module")
def net():
    """Perturbed directed grid: irregular edge lengths, no cost ties."""
    return grid_city(rows=7, cols=7, spacing_m=140.0, seed=17)


@pytest.fixture(scope="module", params=["full", "lazy"])
def engine(request, net):
    return ShortestPathEngine(net, mode=request.param)


def _random_request(rng, net, engine, rid):
    n = net.num_vertices
    origin = int(rng.integers(n))
    destination = int(rng.integers(n))
    while destination == origin or engine.cost(origin, destination) == np.inf:
        destination = int(rng.integers(n))
    direct = engine.cost(origin, destination)
    deadline = (1.0 + rng.uniform(0.0, 2.0)) * direct + rng.uniform(0.0, 600.0)
    return RideRequest(
        request_id=rid,
        release_time=0.0,
        origin=origin,
        destination=destination,
        deadline=deadline,
        direct_cost=direct,
    )


def _random_pending(rng, net, engine, base_rid):
    """A structurally valid pending schedule plus its onboard count."""
    stops = []
    onboard = 0
    rid = base_rid
    for _ in range(int(rng.integers(0, 3))):  # passengers already aboard
        r = _random_request(rng, net, engine, rid)
        rid += 1
        stops.append(dropoff(r))
        onboard += r.num_passengers
    for _ in range(int(rng.integers(0, 3))):  # assigned, not yet aboard
        r = _random_request(rng, net, engine, rid)
        rid += 1
        i = int(rng.integers(0, len(stops) + 1))
        j = int(rng.integers(i, len(stops) + 1))
        stops.insert(i, pickup(r))
        stops.insert(j + 1, dropoff(r))
    return stops, onboard


def _random_start(rng, net, engine, base_rid):
    """One ``score_insertions`` candidate: random position and schedule."""
    pending, onboard = _random_pending(rng, net, engine, base_rid)
    return (
        int(rng.integers(net.num_vertices)),
        float(rng.uniform(0.0, 100.0)),
        pending,
        onboard,
        int(rng.integers(max(1, onboard + 1), 7)),
    )


#: ``TIGHT_INSERTION_MAX`` values forcing each tier, with the counter
#: that proves which one ran.
TIERS = {
    "tight": (10**9, "kernel.tight_dispatches"),
    "grouped": (0, "kernel.batched_insertions"),
}


def _every_start(count):
    """The pair index of one request scored against ``count`` starts."""
    return [0] * count, range(count)


def _score_both_tiers(engine, monkeypatch, starts, request):
    """``score_insertions`` of one request against every start, through
    each tier, == the scalar oracle."""
    expected = oracle_score_insertions(engine, starts, request)
    for threshold, counter in TIERS.values():
        monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
        obs = Instrumentation()
        got = score_insertions(engine, starts, [request], _every_start(len(starts)), obs)
        assert got == expected
        assert set(obs.counter_snapshot()) == {counter}
    return expected


def _oracle_rows(engine, starts, requests, pairs):
    """The scalar oracle per row of a pair index."""
    return [
        (row, last, i, j)
        for row, (r, s) in enumerate(zip(*pairs))
        for _only, last, i, j in oracle_score_insertions(engine, [starts[s]], requests[r])
    ]


def _grouped(engine, rows):
    """``evaluate_insertions_grouped`` over ``(start, request)`` rows of
    one pending-stop count, its operands read here from the stops."""
    extended = [[*start[2], pickup(request), dropoff(request)] for start, request in rows]
    nodes, times, _pendings, onboards, capacities = zip(*(start for start, _r in rows))
    return evaluate_insertions_grouped(
        engine,
        np.array(nodes, dtype=np.int64),
        np.array(times, dtype=np.float64),
        np.array([[s.node for s in stops] for stops in extended], dtype=np.int64),
        np.array([[s.deadline for s in stops] for stops in extended], dtype=np.float64),
        np.array([[s.passenger_delta for s in stops] for stops in extended], dtype=np.int64),
        np.array(onboards, dtype=np.int64),
        np.array(capacities, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# batched cost queries
# ----------------------------------------------------------------------
class TestBatchedCosts:
    def test_cost_many_bit_identical(self, net, engine):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = int(rng.integers(net.num_vertices))
            vs = rng.integers(0, net.num_vertices, size=15)
            batch = engine.cost_many(u, vs)
            scalar = np.array([engine.cost(u, int(v)) for v in vs])
            assert np.array_equal(batch, scalar)

    def test_cost_matrix_bit_identical(self, net, engine):
        rng = np.random.default_rng(2)
        # Duplicate sources on purpose: exercises the lazy-mode dedup.
        us = rng.integers(0, net.num_vertices, size=12)
        us[5] = us[0]
        vs = rng.integers(0, net.num_vertices, size=9)
        mat = engine.cost_matrix(us, vs)
        assert mat.shape == (12, 9)
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                assert mat[a, b] == engine.cost(int(u), int(v))

    def test_cost_pairs_bit_identical(self, net, engine):
        rng = np.random.default_rng(21)
        us = rng.integers(0, net.num_vertices, size=40)
        vs = rng.integers(0, net.num_vertices, size=40)
        us[3], vs[3] = us[0], us[0]  # a zero-length leg, and repeated endpoints
        us[7] = us[0]
        legs = engine.cost_pairs(us, vs)
        assert legs.shape == (40,)
        for u, v, leg in zip(us, vs, legs):
            assert leg == engine.cost(int(u), int(v))

    def test_cost_matrix_accepts_lists(self, net, engine):
        mat = engine.cost_matrix([0, 3], [1])
        assert mat[0, 0] == engine.cost(0, 1)
        assert mat[1, 0] == engine.cost(3, 1)


# ----------------------------------------------------------------------
# grouped insertion kernel: every instance against the oracle
# ----------------------------------------------------------------------
class TestBatchedInsertions:
    def test_matches_scalar_reference(self, net, engine):
        rng = np.random.default_rng(3)
        request = _random_request(rng, net, engine, rid=999)
        by_m: dict[int, list] = {}
        for trial in range(60):
            start = _random_start(rng, net, engine, base_rid=trial * 10)
            by_m.setdefault(len(start[2]), []).append(start)
        assert len(by_m) > 3 and any(len(g) > 1 for g in by_m.values())
        for m, group in by_m.items():
            batch = _grouped(engine, [(start, request) for start in group])
            assert batch.feasible.shape == (len(group), num_insertions(m))
            for t, start in enumerate(group):
                for k, (i, j, _stops, last, ok) in enumerate(
                    oracle_instances(engine, start, request)
                ):
                    assert int(batch.pickup_idx[k]) == i
                    assert int(batch.dropoff_idx[k]) == j
                    assert batch.last_arrival[t, k] == last
                    assert bool(batch.feasible[t, k]) == ok

    def test_one_request_per_row(self, net, engine):
        """A row is a (request, taxi) pair: rows may insert different
        requests, and rows may share one taxi's schedule object."""
        rng = np.random.default_rng(22)
        requests = [_random_request(rng, net, engine, rid=900 + k) for k in range(6)]
        taxis = {}
        for trial in range(40):
            start = _random_start(rng, net, engine, base_rid=trial * 10)
            taxis.setdefault(len(start[2]), []).append(start)
        checked = 0
        for m, group in taxis.items():
            rows = [(start, request) for start in group for request in requests[: 1 + m]]
            batch = _grouped(engine, rows)
            for t, (start, request) in enumerate(rows):
                for k, (_i, _j, _stops, last, ok) in enumerate(
                    oracle_instances(engine, start, request)
                ):
                    assert batch.last_arrival[t, k] == last
                    assert bool(batch.feasible[t, k]) == ok
                    checked += ok
        assert checked > 0

    def test_negative_occupancy_raises_like_scalar(self, net, engine):
        rng = np.random.default_rng(4)
        r1 = _random_request(rng, net, engine, rid=1)
        request = _random_request(rng, net, engine, rid=2)
        # Drop-off with nobody aboard: scalar capacity_ok raises.
        with pytest.raises(ValueError):
            _grouped(engine, [((0, 0.0, [dropoff(r1)], 0, 4), request)])


# ----------------------------------------------------------------------
# single-candidate path: the one-item case of the same scorer
# ----------------------------------------------------------------------
class _FakeTaxi:
    """Just enough taxi surface for the matcher's scoring paths."""

    committed = 0
    #: No route to abandon: ``remaining_route_cost`` is 0 whatever the time.
    route_end = -np.inf

    def __init__(self, taxi_id, start):
        self.taxi_id = taxi_id
        self._node, self._ready, self._pending, self.occupancy, self.capacity = start

    def position_at(self, now):
        return self._node, self._ready

    @property
    def idle(self):
        return not self._pending

    def pending_stops(self):
        return list(self._pending)

    def remaining_route_cost(self, ready):
        return 0.0


class TestMatcherEquivalence:
    def test_best_insertion_matches_scalar(self, net, engine, monkeypatch):
        rng = np.random.default_rng(5)
        chosen = 0
        for trial in range(60):
            start = _random_start(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            taxi = _FakeTaxi(trial, start)
            expected = _score_both_tiers(engine, monkeypatch, [start], request)
            best = best_insertion_for_taxi(engine, taxi, request, 0.0, NULL)
            if not expected:
                assert best is None
                continue
            chosen += 1
            _idx, last, i, j = expected[0]
            stops = next(
                s for pi, pj, s in enumerate_insertions(start[2], request) if (pi, pj) == (i, j)
            )
            # Detour bit-identical to the arrival's, same stop list.
            ready = start[1]
            assert best == ((last - ready) - taxi.remaining_route_cost(ready), stops)
        assert chosen > 0  # the fuzz actually exercised feasible cases


# ----------------------------------------------------------------------
# CSR-subgraph restricted Dijkstra
# ----------------------------------------------------------------------
class TestRestrictedDijkstra:
    def _random_allowed(self, rng, net):
        n = net.num_vertices
        size = int(rng.integers(8, n + 1))
        return frozenset(int(v) for v in rng.choice(n, size=size, replace=False))

    def test_csr_matches_scalar_cost(self, net):
        rng = np.random.default_rng(6)
        compared = 0
        for _ in range(40):
            allowed = self._random_allowed(rng, net)
            nodes = sorted(allowed)
            u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            try:
                cost_s, path_s = reference_dijkstra(net, u, v, allowed)
            except PathNotFound:
                with pytest.raises(PathNotFound):
                    dijkstra_restricted(net, u, v, allowed)
                continue
            cost_c, path_c = dijkstra_restricted(net, u, v, allowed)
            compared += 1
            assert cost_c == cost_s
            assert path_c[0] == u and path_c[-1] == v
            assert all(w in allowed for w in path_c)
        assert compared > 0

    def test_csr_matches_scalar_with_vertex_weights(self, net):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(40):
            allowed = self._random_allowed(rng, net)
            weights = {int(v): float(rng.uniform(0.0, 30.0)) for v in allowed}
            nodes = sorted(allowed)
            u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            try:
                cost_s, _ = reference_dijkstra(net, u, v, allowed, vertex_weight=weights)
            except PathNotFound:
                continue
            # Probabilistic routing's path: weights folded into the edges.
            sub = net.induced_subgraph(allowed)
            w_local = np.array([weights[int(c)] for c in sub.nodes])
            cost_c, path_c = CorridorGraph.build(sub, w_local).shortest_path(u, v)
            compared += 1
            assert cost_c == cost_s
            assert path_c[0] == u and path_c[-1] == v
        assert compared > 0

    def test_source_equals_target(self, net):
        allowed = frozenset(range(10))
        assert dijkstra_restricted(net, 3, 3, allowed) == (0.0, [3])
        assert reference_dijkstra(net, 3, 3, allowed) == (0.0, [3])

    def test_subgraph_cache_hits(self, net):
        net.corridors.clear()
        allowed = frozenset(range(net.num_vertices))
        dijkstra_restricted(net, 0, 5, allowed)
        before = net.corridors.stats()
        dijkstra_restricted(net, 1, 6, allowed)
        after = net.corridors.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert after["entries"] >= 1
        assert sum(sub.memory_bytes() for sub in net.corridors.values()) > 0
        net.corridors.clear()


# ----------------------------------------------------------------------
# in-tree corridor search == the scipy search it replaced
# ----------------------------------------------------------------------
@st.composite
def _corridor_cases(draw, ties):
    """A jittered grid city, an allowed subset of it, a weight per kept
    vertex and two endpoints in the subset (equal in about one draw of
    eight).

    ``ties=False``: the city's continuous lengths, in half the draws a
    fifth of them at exact zero, and continuous weights, a fifth of them
    exactly 0 (the corridor's hottest vertex weighs 0).  ``ties=True``:
    every length 100 m at 1 m/s and weights of 0 or 10 s, so every sum
    is exact and equally short paths are everywhere.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    base = grid_city(rows=draw(st.integers(min_value=3, max_value=7)),
                     cols=draw(st.integers(min_value=3, max_value=7)),
                     spacing_m=150.0, seed=seed % 1000)
    edges = list(base.edges())
    if ties:
        lengths = np.full(len(edges), 100.0)
    else:
        lengths = np.array([length for _u, _v, length in edges])
        if draw(st.booleans()):
            lengths[rng.random(len(edges)) < 0.2] = 0.0
    net = RoadNetwork(base.xy, [(u, v, float(w)) for (u, v, _), w in zip(edges, lengths)],
                      speed_mps=1.0 if ties else base.speed_mps)
    n = net.num_vertices
    size = int(rng.integers(max(1, n // 3), n + 1))
    allowed = frozenset(rng.choice(n, size=size, replace=False).tolist())
    nodes = sorted(allowed)
    if ties:
        weights = 10.0 * rng.integers(0, 2, size=len(nodes))
    else:
        weights = rng.uniform(0.0, 30.0, size=len(nodes))
        weights[rng.random(len(nodes)) < 0.2] = 0.0
    source, target = (nodes[i] for i in rng.integers(len(nodes), size=2))
    if rng.random() < 0.125:
        target = source
    return net, allowed, weights, source, target


def _shortest_paths_between(matrix, ls, lt):
    """How many shortest paths run from ``ls`` to ``lt``: paths of tight
    edges (``dist[u] + w == dist[v]``, exactly), counted in distance order."""
    dist = csgraph.dijkstra(matrix, directed=True, indices=ls)
    count = np.zeros(dist.size, dtype=np.int64)
    count[ls] = 1
    coo = matrix.tocoo()
    for v in np.argsort(dist, kind="stable"):
        tight = (coo.col == v) & (dist[coo.row] + coo.data == dist[v])
        count[v] += count[coo.row[tight]].sum()
    return int(count[lt])


class TestCorridorSearch:
    """The in-tree heap Dijkstra of probabilistic routing against the scipy
    search it replaced (``tests/oracles.py``, "Restricted Dijkstra"):
    costs bit-equal, paths equal wherever the shortest path is unique,
    and otherwise a real path of exactly the cost."""

    @staticmethod
    def _both(case):
        net, allowed, weights, source, target = case
        sub = net.induced_subgraph(allowed)
        graph = CorridorGraph.build(sub, weights)
        matrix = weighted_matrix(sub, weights)
        try:
            want = reference_corridor_path(sub, matrix, source, target)
        except PathNotFound:
            with pytest.raises(PathNotFound):
                graph.shortest_path(source, target)
            return None
        cost, path = graph.shortest_path(source, target)
        assert cost == want[0]
        assert path[0] == source and path[-1] == target
        weight_of = {}
        for u in range(sub.nodes.size):
            for j in range(graph.indptr[u], graph.indptr[u + 1]):
                weight_of[u, graph.indices[j]] = graph.weights[j]
        local = [sub.local_of(v) for v in path]
        total = 0.0
        for hop in zip(local, local[1:]):
            total += weight_of[hop]  # KeyError: not an edge of the corridor
        assert total == cost
        return path, want[1], _shortest_paths_between(matrix, local[0], local[-1])

    @settings(max_examples=300, deadline=None)
    @given(_corridor_cases(ties=False))
    def test_jittered_corridors_match_scipy(self, case):
        found = self._both(case)
        if found is not None:
            path, want_path, shortest = found
            if shortest == 1:
                assert path == want_path

    @settings(max_examples=200, deadline=None)
    @given(_corridor_cases(ties=True))
    def test_tied_corridors_give_a_shortest_path(self, case):
        self._both(case)

    def test_ties_go_to_the_lower_local_index(self):
        """``0 -> 1 -> 3`` and ``0 -> 2 -> 3`` are equally long: the heap
        settles 1 first, and 2 does not strictly improve 3."""
        net = RoadNetwork([(0, 0), (1, 1), (1, -1), (2, 0)],
                          [(0, 1, 100.0), (0, 2, 100.0), (1, 3, 100.0), (2, 3, 100.0)])
        sub = net.induced_subgraph(frozenset(range(4)))
        assert CorridorGraph.build(sub, np.zeros(4)).shortest_path(0, 3)[1] == [0, 1, 3]
        weighted = CorridorGraph.build(sub, np.array([0.0, 5.0, 0.0, 0.0]))
        assert weighted.shortest_path(0, 3)[1] == [0, 2, 3]


# ----------------------------------------------------------------------
# score_insertions on each side of the tier threshold == scalar oracle
# ----------------------------------------------------------------------
class TestTightInsertion:
    def test_matches_batched_kernel(self, net, engine, monkeypatch):
        """One candidate at a time, every schedule length ``m = 0..6``."""
        rng = np.random.default_rng(7)
        found = 0
        seen_m = set()
        for trial in range(80):
            start = _random_start(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            seen_m.add(len(start[2]))
            found += len(_score_both_tiers(engine, monkeypatch, [start], request))
        assert seen_m == set(range(7))
        assert found > 0

    def test_whole_dispatch_scorer(self, net, engine, monkeypatch):
        """A whole candidate set, including candidates with no feasible
        instance (they are simply absent from the result)."""
        rng = np.random.default_rng(8)
        request = _random_request(rng, net, engine, rid=999)
        starts = [_random_start(rng, net, engine, base_rid=trial * 10) for trial in range(12)]
        # Too late for any deadline; too small for the new passenger.
        node, _t0, pending, onboard, capacity = starts[0]
        starts.append((node, 1e9, pending, onboard, capacity))
        starts.append((node, 0.0, [], 0, 0))
        out = _score_both_tiers(engine, monkeypatch, starts, request)
        scored = {idx for idx, _last, _i, _j in out}
        assert scored and scored <= set(range(12))
        assert _score_both_tiers(engine, monkeypatch, starts[12:], request) == []

    def test_one_request_per_row(self, net, engine, monkeypatch):
        """A whole window in one call: each row its own (request, taxi)
        pair, equal to scoring every row alone."""
        rng = np.random.default_rng(23)
        requests = [_random_request(rng, net, engine, rid=900 + k) for k in range(5)]
        starts = [_random_start(rng, net, engine, base_rid=trial * 10) for trial in range(8)]
        pairs = (
            [r for _s in range(len(starts)) for r in range(len(requests))],
            [s for s in range(len(starts)) for _r in range(len(requests))],
        )
        expected = _oracle_rows(engine, starts, requests, pairs)
        assert expected
        for threshold, counter in TIERS.values():
            monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
            obs = Instrumentation()
            assert score_insertions(engine, starts, requests, pairs, obs) == expected
            assert set(obs.counter_snapshot()) == {counter}

    def test_shuffled_pair_index(self, net, engine, monkeypatch):
        """Rows in any order, starts and requests shared across rows,
        some of each referenced by no row, mixed pending-stop counts:
        every row equals the oracle on its own pair."""
        rng = np.random.default_rng(24)
        checked = mixed = 0
        for trial in range(12):
            starts = [
                _random_start(rng, net, engine, base_rid=1000 * trial + 10 * k)
                for k in range(9)
            ]
            requests = [
                _random_request(rng, net, engine, rid=1000 * trial + 900 + k) for k in range(5)
            ]
            # Start 0 and request 0 stay unreferenced; pairs repeat.
            rows = int(rng.integers(1, 30))
            pairs = (
                rng.integers(1, len(requests), size=rows).tolist(),
                rng.integers(1, len(starts), size=rows).tolist(),
            )
            mixed += len({len(starts[s][2]) for s in pairs[1]}) > 1
            expected = _oracle_rows(engine, starts, requests, pairs)
            for threshold, counter in TIERS.values():
                monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
                obs = Instrumentation()
                as_arrays = tuple(np.array(column, dtype=np.intp) for column in pairs)
                for index in (pairs, as_arrays):
                    assert score_insertions(engine, starts, requests, index, obs) == expected
                assert set(obs.counter_snapshot()) == {counter}
            checked += len(expected)
        assert checked > 0 and mixed > 6

    def test_grouped_tier_gathers_once_per_start_and_request(self, net, engine, monkeypatch):
        """The grouped tier reads every pending stop's fields once per
        distinct start and every request once, however many rows share
        them."""
        rng = np.random.default_rng(25)
        starts = [_random_start(rng, net, engine, base_rid=10 * k) for k in range(6)]
        requests = [_random_request(rng, net, engine, rid=900 + k) for k in range(4)]
        assert sum(len(start[2]) for start in starts) > 0
        pairs = (
            [r for _s in range(len(starts)) for r in range(len(requests))] * 2,
            [s for s in range(len(starts)) for _r in range(len(requests))] * 2,
        )
        expected = _oracle_rows(engine, starts, requests, pairs)
        reads: dict[tuple[str, int], int] = {}

        def counting(cls, name):
            original = getattr(cls, name).fget

            def read(obj):
                key = (name, id(obj))
                reads[key] = reads.get(key, 0) + 1
                return original(obj)

            monkeypatch.setattr(cls, name, property(read))

        for name in ("node", "deadline", "passenger_delta"):
            counting(schedule_mod.Stop, name)
        counting(RideRequest, "pickup_deadline")
        monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", 0)
        assert score_insertions(engine, starts, requests, pairs, NULL) == expected
        for start in starts:
            for stop in start[2]:
                for name in ("node", "deadline", "passenger_delta"):
                    assert reads[(name, id(stop))] == 1
        for request in requests:
            assert reads[("pickup_deadline", id(request))] == 1

    def test_refuses_a_pair_index_that_disagrees(self, net, engine, monkeypatch):
        """Unequal columns and out-of-range indices, negative ones
        included, are refused in both tiers instead of dropped or
        wrapped."""
        rng = np.random.default_rng(26)
        starts = [_random_start(rng, net, engine, base_rid=10 * k) for k in range(3)]
        requests = [_random_request(rng, net, engine, rid=900 + k) for k in range(4)]
        unequal = [
            ([0, 1, 2, 3], [0, 1, 2]),
            ([0, 1, 2], range(4)),
            (np.zeros(2, dtype=np.intp), np.arange(3, dtype=np.intp)),
        ]
        outside = [
            ([0, 1, 4], [0, 1, 2]),  # a fifth request
            ([0, 1, 2], [0, 1, 3]),  # a fourth start
            ([0, -1, 2], [0, 1, 2]),
            ([-1, 1, 2], [0, 1, 2]),
            ([0, 1, 2], [0, 1, -1]),
            (np.array([0, 1, 2], dtype=np.intp), np.array([-3, 1, 2], dtype=np.intp)),
        ]
        for threshold, _counter in TIERS.values():
            monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
            for pairs in unequal:
                with pytest.raises(ValueError, match="differ in length"):
                    score_insertions(engine, starts, requests, pairs, NULL)
            for pairs in outside:
                with pytest.raises(ValueError, match="outside"):
                    score_insertions(engine, starts, requests, pairs, NULL)
            assert score_insertions(engine, starts, requests, ([], []), NULL) == []

    def test_negative_occupancy_raises_like_scalar(self, net, engine, monkeypatch):
        rng = np.random.default_rng(9)
        r1 = _random_request(rng, net, engine, rid=1)
        r2 = _random_request(rng, net, engine, rid=2)
        request = _random_request(rng, net, engine, rid=3)
        impossible = [
            [(0, 0.0, [dropoff(r1)], 0, 4)],  # drop-off with nobody aboard
            [(0, 0.0, [], -1, 4)],  # idle taxi, negative initial occupancy
        ]
        for threshold, _counter in TIERS.values():
            monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
            for starts in impossible:
                with pytest.raises(ValueError):
                    oracle_score_insertions(engine, starts, request)
                with pytest.raises(ValueError):
                    score_insertions(engine, starts, [request], ([0], [0]), NULL)
        # capacity_ok fails an instance at its first over-capacity stop,
        # before it can reach the negative occupancy that would raise:
        # with no seat at all, every instance is over capacity first.
        over_first = [(0, 0.0, [pickup(r1), dropoff(r1), dropoff(r2)], 0, 0)]
        assert _score_both_tiers(engine, monkeypatch, over_first, request) == []

    def test_materialize_matches_enumeration(self, net, engine):
        rng = np.random.default_rng(10)
        for trial in range(20):
            pending, _onboard = _random_pending(rng, net, engine, base_rid=trial * 10)
            request = _random_request(rng, net, engine, rid=trial * 10 + 9)
            for i, j, stops in enumerate_insertions(pending, request):
                assert materialize_insertion(pending, request, i, j) == stops


# ----------------------------------------------------------------------
# direction units (scalar mobility-cluster fast path)
# ----------------------------------------------------------------------
class TestDirectionUnits:
    def _random_dirs(self, rng, k):
        dirs = [(float(x), float(y)) for x, y in rng.uniform(-3000.0, 3000.0, (k, 2))]
        dirs += [(0.0, 0.0), (1250.0, 0.0), (0.0, -40.0), (1e-8, 1e-8)]
        return dirs

    def test_unit_similarity_matches_cosine(self):
        rng = np.random.default_rng(11)
        dirs = self._random_dirs(rng, 40)
        for ax, ay in dirs:
            ua = direction_unit(ax, ay)
            for bx, by in dirs:
                ub = direction_unit(bx, by)
                assert unit_similarity(ua, ub) == cosine_similarity(ax, ay, bx, by)

    def test_cluster_lookups_match_brute_force(self):
        rng = np.random.default_rng(12)
        index = MobilityClusterIndex(lam=0.5)
        for rid in range(40):
            ox, oy, dx, dy = rng.uniform(-5000.0, 5000.0, 4)
            index.add_request(rid, MobilityVector(float(ox), float(oy), float(dx), float(dy)))
        assert index.num_clusters > 1
        for _ in range(25):
            ox, oy, dx, dy = rng.uniform(-5000.0, 5000.0, 4)
            vec = MobilityVector(float(ox), float(oy), float(dx), float(dy))
            brute = [
                cid
                for cid in index.cluster_ids()
                if index._clusters[cid].general_vector().similarity(vec) >= index.lam
            ]
            assert index.matching_clusters(direction_unit(*vec.direction)) == brute
            best_id, best_sim = index._best_cluster(vec)
            exp_id, exp_sim = None, -2.0
            for cid in index.cluster_ids():
                sim = index._clusters[cid].general_vector().similarity(vec)
                if sim > exp_sim:
                    exp_id, exp_sim = cid, sim
            assert (best_id, best_sim) == (exp_id, exp_sim)

    def test_taxi_units_track_vectors(self):
        index = MobilityClusterIndex(lam=0.5)
        index.register({7: 0, 8: 1})
        index.add_request(0, MobilityVector(0.0, 0.0, 100.0, 0.0))
        index.update_taxi(7, MobilityVector(5.0, 5.0, 90.0, 12.0))
        assert index.unit[0].tolist() == list(direction_unit(85.0, 7.0))
        index.update_taxi(8, MobilityVector(3.0, 4.0, 3.0, 4.0))
        assert index.unit[1].tolist() == list(ZERO_UNIT)
        index.update_taxi(7, None)
        assert np.isnan(index.unit[0]).all()


# ----------------------------------------------------------------------
# matcher-level dispatch scoring: same ranking whichever tier runs
# ----------------------------------------------------------------------
class TestScorerTierEquivalence:
    def test_tiers_agree_on_whole_dispatch(self, net, engine, monkeypatch):
        rng = np.random.default_rng(13)
        request = _random_request(rng, net, engine, rid=888)
        candidates = [
            _FakeTaxi(trial, _random_start(rng, net, engine, base_rid=trial * 10))
            for trial in range(10)
        ]
        instances = sum(num_insertions(len(t.pending_stops())) for t in candidates)

        def run(tier):
            threshold, counter = TIERS[tier]
            monkeypatch.setattr(schedule_mod, "TIGHT_INSERTION_MAX", threshold)
            obs = Instrumentation()
            planning = Planning.of_taxis(candidates, 0.0)
            scored = score_candidates(engine, candidates, planning, request, 0.0, obs)
            counters = obs.counter_snapshot()
            # The fingerprinted counter does not depend on the tier.
            assert counters.pop("match.insertions_evaluated") == instances
            assert set(counters) == {counter}
            return [
                (d, t.taxi_id, materialize_insertion(p, request, i, j))
                for d, t, p, i, j in scored
            ]

        tight = run("tight")
        assert tight == run("grouped")
        assert len(tight) > 0
        # Candidate order: each scheme ranks the scores by its own rule.
        assert [item[1] for item in tight] == sorted(item[1] for item in tight)


# ----------------------------------------------------------------------
# basic-router leg cache
# ----------------------------------------------------------------------
class TestLegCache:
    def _feasible_stops(self, rng, net, engine, k):
        stops = []
        for rid in range(k):
            r = _random_request(rng, net, engine, rid=rid)
            big = RideRequest(
                request_id=r.request_id,
                release_time=r.release_time,
                origin=r.origin,
                destination=r.destination,
                deadline=r.deadline + 1e9,
                direct_cost=r.direct_cost,
            )
            stops.append(pickup(big))
            stops.append(dropoff(big))
        return stops

    def test_cached_routes_bit_identical(self, net, engine):
        rng = np.random.default_rng(14)
        router = BasicRouter(net, engine)
        for trial in range(8):
            stops = self._feasible_stops(rng, net, engine, k=2)
            start = int(rng.integers(net.num_vertices))
            t0 = float(rng.uniform(0.0, 100.0))
            cold = router.route_for_schedule(start, t0, stops)
            warm = router.route_for_schedule(start, t0, stops)
            legs = []
            node = start
            for stop in stops:
                legs.append(engine.path(node, stop.node))
                node = stop.node
            ref = compose_route(net, start, t0, legs)
            for route in (cold, warm):
                assert route.nodes == ref.nodes
                assert route.times == ref.times  # same sequential float adds
                assert route.stop_positions == ref.stop_positions


# ----------------------------------------------------------------------
# disc-intersection coordinate cache
# ----------------------------------------------------------------------
class TestDiscCache:
    def test_cached_answers_match_array_formula(self, net):
        engine = ShortestPathEngine(net, mode="full")
        n = net.num_vertices
        parts = [list(range(i, n, 4)) for i in range(4)]
        lg = LandmarkGraph(net, parts, engine)
        centroids = lg.to_tables()["centroids"]
        rng = np.random.default_rng(15)
        for _ in range(30):
            v = int(rng.integers(n))
            x, y = (float(c) for c in net.xy[v])
            radius = float(rng.uniform(0.0, 900.0))
            expected = [
                int(z)
                for z in np.flatnonzero(
                    np.hypot(centroids[:, 0] - x, centroids[:, 1] - y)
                    <= np.array([lg.radius(z) for z in range(4)]) + radius
                )
            ]
            assert lg.partitions_intersecting_disc(x, y, radius) == expected
            # warm (cached distances) answer is identical
            assert lg.partitions_intersecting_disc(x, y, radius) == expected

    def test_mask_of_many_discs_matches_one_at_a_time(self, net):
        engine = ShortestPathEngine(net, mode="full")
        n = net.num_vertices
        lg = LandmarkGraph(net, [list(range(i, n, 4)) for i in range(4)], engine)
        rng = np.random.default_rng(16)
        centres = net.xy[rng.integers(n, size=40)].tolist()
        radii = rng.uniform(0.0, 900.0, size=40).tolist()
        radii[:3] = [0.0, 0.0, 1e9]
        lookups = lg.discs.hits + lg.discs.misses
        mask = lg.disc_partition_mask(centres, radii)
        assert lg.discs.hits + lg.discs.misses == lookups + 40  # one counted lookup each
        assert mask.shape == (40, 4) and mask.dtype == bool
        for row, (x, y), radius in zip(mask, centres, radii):
            assert np.flatnonzero(row).tolist() == lg.partitions_intersecting_disc(x, y, radius)
        assert lg.disc_partition_mask([], []).shape == (0, 4)
