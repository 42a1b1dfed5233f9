"""Tests for the shortest-path engines and the restricted Dijkstra."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph

from repro.core.payment import PaymentModel
from repro.core.routing import CorridorGraph
from repro.network.ch import ContractionHierarchy
from repro.network import shortest_path
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import (
    FULL_APSP_LIMIT,
    PathNotFound,
    ShortestPathEngine,
    dijkstra_restricted,
    resolve_sp_mode,
)
from repro.sim.engine import Simulator
from repro.sim.scenario import Scenario
from tests.conftest import is_path, small_test_network

from tests.oracles import reference_ch_build
from tests.test_runner_parallel import decision_fingerprint


def _lazy_engine(net, rows):
    """A lazy engine whose source-row memo holds ``rows`` trees."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shortest_path, "LAZY_CACHE_SIZE", rows)
        return ShortestPathEngine(net, mode="lazy")


@pytest.fixture(scope="module")
def lazy_engine(small_net):
    return _lazy_engine(small_net, 8)


@pytest.fixture(scope="module")
def ch_engine(small_net):
    return ShortestPathEngine(small_net, mode="ch")


def _random_network(seed, n=36, num_edges=90, zero_frac=0.0):
    """A random directed network; sparse enough to leave some vertex
    pairs disconnected, optionally with exact zero-weight edges."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 1000.0, size=(n, 2))
    edges = []
    while len(edges) < num_edges:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        w = 0.0 if rng.random() < zero_frac else float(rng.uniform(1.0, 500.0))
        edges.append((u, v, w))
    return RoadNetwork(xy, edges)


class TestEngineBasics:
    def test_zero_distance_to_self(self, tiny_engine):
        assert tiny_engine.distance_m(4, 4) == 0.0
        assert tiny_engine.path(4, 4) == [4]

    def test_grid_distance(self, tiny_engine):
        # 0 -> 8 needs 4 hops of 100 m on the 3x3 grid.
        assert tiny_engine.distance_m(0, 8) == pytest.approx(400.0)

    def test_cost_is_distance_over_speed(self, tiny_engine, tiny_net):
        assert tiny_engine.cost(0, 2) == pytest.approx(200.0 / tiny_net.speed_mps)

    def test_path_is_valid_and_shortest(self, tiny_engine, tiny_net):
        path = tiny_engine.path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert is_path(tiny_net, path)
        assert tiny_net.path_length_m(path) == pytest.approx(tiny_engine.distance_m(0, 8))

    def test_unreachable(self):
        net = RoadNetwork([(0, 0), (100, 0)], [(0, 1)])  # one way only
        eng = ShortestPathEngine(net)
        assert eng.distance_m(1, 0) == np.inf
        with pytest.raises(PathNotFound):
            eng.path(1, 0)

    def test_mode_validation(self, tiny_net):
        with pytest.raises(ValueError):
            ShortestPathEngine(tiny_net, mode="bogus")

    def test_full_mode_distance_queries_leave_the_predecessors_alone(self, tiny_net):
        """Only ``path`` reads a predecessor row; every query still tallies
        exactly the cache hits it always did (one per source row read)."""

        class Untouchable:
            def __getitem__(self, _index):
                raise AssertionError("a distance-only query sliced the predecessor table")

        eng = ShortestPathEngine(tiny_net, mode="full")
        dist, pred = eng.full_matrices()
        eng._pred = Untouchable()
        speed = tiny_net.speed_mps

        def hits(query):
            before = eng.stats()["spe.cache_hits"]
            out = query()
            return out, eng.stats()["spe.cache_hits"] - before

        assert hits(lambda: eng.distance_m(0, 8)) == (dist[0, 8], 1)
        assert hits(lambda: eng.cost(0, 8)) == (dist[0, 8] / speed, 1)
        assert hits(lambda: eng.cost_many(0, [1, 8]).tolist()) == ((dist[0, [1, 8]] / speed).tolist(), 1)
        assert hits(lambda: eng.dist_row(3).tolist()) == (dist[3].tolist(), 1)
        assert hits(lambda: eng.dist_col(3).tolist()) == (dist[:, 3].tolist(), 1)
        assert hits(lambda: eng.cost_matrix([0, 1, 2], [8]).shape) == ((3, 1), 3)
        assert hits(lambda: eng.distance_m(4, 4)) == (0.0, 0)
        with pytest.raises(AssertionError, match="predecessor"):
            eng.path(0, 8)
        eng._pred = pred
        assert hits(lambda: eng.path(0, 8)[-1]) == (8, 1)
        assert eng.stats()["spe.cache_misses"] == 0

    def test_memory_reported(self, tiny_engine):
        assert tiny_engine.memory_bytes() > 0


class TestLazyMode:
    def test_matches_full_mode(self, small_net, small_engine, lazy_engine):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.integers(0, small_net.num_vertices, size=2)
            assert lazy_engine.distance_m(int(u), int(v)) == pytest.approx(
                small_engine.distance_m(int(u), int(v))
            )

    def test_cache_eviction(self, small_net):
        eng = _lazy_engine(small_net, 2)
        for source in range(5):
            eng.dist_row(source)
        stats = eng.stats()
        assert stats["spe.cache_entries"] == 2
        assert stats["spe.cache_evictions"] == 3

    def test_paths_valid(self, small_net, lazy_engine):
        path = lazy_engine.path(0, small_net.num_vertices - 1)
        assert is_path(small_net, path)

    def test_auto_mode_selects_full_for_small(self, tiny_net):
        assert ShortestPathEngine(tiny_net, mode="auto").mode == "full"


class TestCHMode:
    """The contraction-hierarchy backend must be observationally
    identical to the scalar/scipy reference engines."""

    def test_bitwise_equal_to_full(self, small_net, small_engine, ch_engine):
        us = list(range(small_net.num_vertices))
        got = ch_engine.cost_matrix(us, us)
        want = small_engine.cost_matrix(us, us)
        assert np.array_equal(got, want)

    def test_pointwise_equal_to_lazy(self, small_net, lazy_engine, ch_engine):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = (int(x) for x in rng.integers(0, small_net.num_vertices, size=2))
            assert ch_engine.distance_m(u, v) == lazy_engine.distance_m(u, v)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs_match_scalar(self, seed):
        net = _random_network(seed)
        ch = ShortestPathEngine(net, mode="ch")
        ref = ShortestPathEngine(net, mode="lazy")
        rng = np.random.default_rng(seed + 100)
        for _ in range(60):
            u, v = (int(x) for x in rng.integers(0, net.num_vertices, size=2))
            want = ref.distance_m(u, v)
            got = ch.distance_m(u, v)
            if np.isinf(want):
                assert np.isinf(got)
            else:
                # Random graphs can hold equal-length alternatives; both
                # answers are then shortest, but their float sums may
                # differ in the last ulp.
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_zero_weight_edges(self):
        net = _random_network(7, zero_frac=0.3)
        ch = ShortestPathEngine(net, mode="ch")
        ref = ShortestPathEngine(net, mode="lazy")
        for u in range(0, net.num_vertices, 3):
            got = ch.cost_many(u, np.arange(net.num_vertices))
            want = ref.cost_many(u, np.arange(net.num_vertices))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9, nan_ok=False)

    def test_disconnected_components(self):
        # Two 2-cliques with no edges between them.
        net = RoadNetwork(
            [(0, 0), (100, 0), (5000, 0), (5100, 0)],
            [(0, 1), (1, 0), (2, 3), (3, 2)],
        )
        eng = ShortestPathEngine(net, mode="ch")
        assert eng.distance_m(0, 1) == pytest.approx(100.0)
        assert eng.distance_m(0, 2) == np.inf
        assert eng.distance_m(3, 1) == np.inf
        with pytest.raises(PathNotFound):
            eng.path(0, 3)
        # Batched queries agree with the scalar ones.
        mat = eng.cost_matrix([0, 2], [1, 3])
        assert np.isfinite(mat[0, 0]) and np.isfinite(mat[1, 1])
        assert np.isinf(mat[0, 1]) and np.isinf(mat[1, 0])

    def test_cost_matrix_batched_equals_looped(self, small_net, ch_engine):
        rng = np.random.default_rng(3)
        us = [int(x) for x in rng.integers(0, small_net.num_vertices, size=8)]
        vs = [int(x) for x in rng.integers(0, small_net.num_vertices, size=11)]
        batched = ch_engine.cost_matrix(us, vs)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert batched[i, j] == ch_engine.cost(u, v)

    def test_warm_matrix_tiers(self, small_net):
        eng = ShortestPathEngine(small_net, mode="ch")
        rng = np.random.default_rng(8)
        us = [int(x) for x in rng.integers(0, small_net.num_vertices, size=5)]
        vs = [int(x) for x in rng.integers(0, small_net.num_vertices, size=9)]
        cold = eng.cost_matrix(us, vs)
        identical = eng.cost_matrix(us, vs)  # memo row fill
        shuffled = eng.cost_matrix(us, list(reversed(vs)))  # same memo rows
        assert np.array_equal(identical, cold)
        assert np.array_equal(shuffled, cold[:, ::-1])
        assert eng.stats()["sp.ch.memo_hits"] >= len(us) * len(vs)

    def test_lazy_and_ch_decision_streams_identical(self, test_spec):
        """Swapping ``lazy`` for ``ch`` may not move one dispatch decision:
        same trips, accounting buckets, waiting/detour samples and fares.

        ``full`` is deliberately not in this equality:
        ``BasicRouter.leg_path`` routes through the partition filter
        only when ``engine.mode != "full"``, so the dense backend plans
        different legs by design.
        """
        streams = {}
        for sp_mode in ("lazy", "ch"):
            scenario = Scenario(replace(test_spec, sp_mode=sp_mode))
            assert scenario.engine.mode == sp_mode
            sim = Simulator(
                scenario.make_scheme("mt-share"),
                scenario.make_fleet(25, seed=1),
                scenario.requests(),
                payment=PaymentModel(),
            )
            metrics = sim.run()
            trips = [
                (rid, t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
                for rid, t in sorted(sim.log.trips.items())
            ]
            streams[sp_mode] = (trips, decision_fingerprint(metrics))
        assert streams["lazy"][0], "scenario served nothing"
        assert streams["lazy"] == streams["ch"]

    def test_cost_many_matches_full(self, small_net, small_engine, ch_engine):
        vs = np.arange(small_net.num_vertices)
        assert np.array_equal(ch_engine.cost_many(17, vs), small_engine.cost_many(17, vs))

    def test_paths_valid_with_matching_cost(self, small_net, ch_engine, small_engine):
        rng = np.random.default_rng(5)
        for _ in range(30):
            u, v = (int(x) for x in rng.integers(0, small_net.num_vertices, size=2))
            path = ch_engine.path(u, v)
            assert path[0] == u and path[-1] == v
            assert is_path(small_net, path)
            assert small_net.path_length_m(path) == pytest.approx(
                small_engine.distance_m(u, v)
            )

    def test_dist_row_matches_full(self, small_engine, ch_engine):
        assert np.array_equal(ch_engine.dist_row(42), small_engine.dist_row(42))
        assert ch_engine.dist_col(42) is None

    def test_stats_keys(self, small_net):
        eng = ShortestPathEngine(small_net, mode="ch")
        eng.distance_m(0, 57)
        stats = eng.stats()
        for key in ("spe.cache_hits", "spe.cache_misses", "spe.cache_entries",
                    "sp.ch.queries", "sp.ch.shortcuts"):
            assert key in stats
        assert stats["sp.ch.queries"] >= 1
        arrays = eng._ch._arrays
        shortcuts = sum(
            int(np.count_nonzero(arrays[key] >= 0)) for key in ("up_mid", "down_mid")
        )
        assert shortcuts > 0
        assert stats["sp.ch.shortcuts"] == shortcuts
        assert "sp.ch.shortcuts" in eng.STAT_GAUGES

    def test_mode_resolution(self, monkeypatch):
        # The size rule alone: no environment variable moves ``auto``.
        monkeypatch.setenv("REPRO_SP_MODE", "ch")
        assert resolve_sp_mode("auto", 100) == "full"
        assert resolve_sp_mode("auto", FULL_APSP_LIMIT) == "full"
        # The size rule never picks the hierarchy: lazy measured faster.
        assert resolve_sp_mode("auto", FULL_APSP_LIMIT + 1) == "lazy"
        assert resolve_sp_mode("auto", 50_000) == "lazy"
        assert resolve_sp_mode("lazy", 50_000) == "lazy"
        assert resolve_sp_mode("ch", 100) == "ch"
        assert resolve_sp_mode("full", 50_000) == "full"
        with pytest.raises(ValueError):
            resolve_sp_mode("bogus", 100)


    def test_auto_above_limit_builds_no_hierarchy(self, tmp_path, monkeypatch):
        """``auto`` on a grid just past the dense-table limit runs lazy
        and leaves neither a ``ch`` nor an ``apsp`` artifact behind."""
        from repro.artifacts import get_store
        from repro.sim.scenario import ScenarioSpec

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        spec = ScenarioSpec(
            grid_rows=78, grid_cols=78, hourly_requests=20, history_days=1,
            num_partitions=4, offline_count=0, seed=3,
        )
        scenario = Scenario(spec)
        assert scenario.network.num_vertices > FULL_APSP_LIMIT
        assert scenario.engine.mode == "lazy"
        assert not any(key.startswith("sp.ch.") for key in scenario.engine.stats())
        store = get_store()
        assert store.entries("ch") == [] and store.entries("apsp") == []

    def test_ch_scenario_stores_no_hierarchy(self, tmp_path, monkeypatch):
        """A ``ch`` scenario on an empty store contracts its hierarchy in
        memory and writes no ``ch`` artifact; the trace is stored as on
        every backend."""
        from repro.artifacts import get_store
        from repro.sim.scenario import ScenarioSpec

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        spec = ScenarioSpec(
            grid_rows=8, grid_cols=8, spacing_m=150.0, hourly_requests=50,
            history_days=1, num_partitions=4, offline_count=5, seed=2, sp_mode="ch",
        )
        scenario = Scenario(spec)
        assert scenario.engine.stats()["sp.ch.shortcuts"] > 0
        store = get_store()
        assert store.entries("ch") == [] and "ch" not in store.stats()
        assert store.entries("trace")


def _diamond():
    """``u↔v1↔t`` and ``u↔v2↔t`` at equal lengths, two pendants on each of
    ``u`` and ``t``: ``v1``, ``v2`` and the pendants form the first round,
    and ``v1`` and ``v2`` are each other's tie for ``u → t``."""
    u, v1, v2, t = 0, 1, 2, 3
    legs = [(u, v1), (v1, t), (u, v2), (v2, t), (u, 4), (u, 5), (t, 6), (t, 7)]
    edges = [(a, b, 100.0) for a, b in legs] + [(b, a, 100.0) for a, b in legs]
    xy = [(0, 0), (100, 50), (100, -50), (200, 0), (-100, 50), (-100, -50), (300, 50), (300, -50)]
    return RoadNetwork(xy, edges)


@st.composite
def _digraphs(draw):
    """Random digraphs of up to 12 vertices: one-way edges, parallel edges
    (``RoadNetwork`` keeps the lightest), disconnected parts, and — in
    half the draws — exact zero lengths.  Other lengths are continuous, so
    a draw without zero lengths has unique shortest paths."""
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=3 * n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lengths = rng.uniform(1.0, 500.0, size=len(pairs))
    if draw(st.booleans()):
        lengths[rng.random(len(pairs)) < 0.3] = 0.0
    edges = [(u, v, float(w)) for (u, v), w in zip(pairs, lengths)]
    return RoadNetwork(rng.uniform(0.0, 1000.0, size=(n, 2)), edges)


def _all_pairs(hierarchy, n):
    return np.array([[hierarchy.distance_m(a, b) for b in range(n)] for a in range(n)])


class TestContractionRounds:
    """The hierarchy contracted in rounds answers exactly what scipy and
    the sequential reference build (``tests/oracles.py``) answer."""

    def test_symmetric_diamond_keeps_every_distance(self):
        """Under a ``<=`` witness test ``v1`` and ``v2`` each take the other
        as the witness of their tie and ``u`` loses ``t``."""
        net = _diamond()
        want = csgraph.dijkstra(net.to_csr())
        assert np.isfinite(want).all()
        assert np.array_equal(_all_pairs(ContractionHierarchy.build(net), 8), want)
        batched = ContractionHierarchy.build(net).cost_matrix_m(range(8), range(8))
        assert np.array_equal(batched, want)

    def test_build_deterministic(self, tiny_net):
        a = ContractionHierarchy.build(tiny_net)._arrays
        b = ContractionHierarchy.build(tiny_net)._arrays
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    @settings(max_examples=60, deadline=None)
    @given(_digraphs())
    def test_random_digraphs_bit_equal_to_scipy(self, net):
        n = net.num_vertices
        want = csgraph.dijkstra(net.to_csr())
        pointwise = ContractionHierarchy.build(net)
        assert np.array_equal(_all_pairs(pointwise, n), want)
        batched = ContractionHierarchy.build(net)
        assert np.array_equal(batched.cost_matrix_m(range(n), range(n)), want)
        unique = all(length > 0.0 for _u, _v, length in net.edges())
        reference = reference_ch_build(net)
        for a in range(n):
            for b in range(n):
                path = pointwise.path(a, b)
                if np.isinf(want[a, b]):
                    assert path is None
                    continue
                assert path[0] == a and path[-1] == b and is_path(net, path)
                if unique:
                    assert path == reference.path(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_exact_tie_grids(self, rows, cols, seed):
        """Every edge exactly 100.0 (some one-way): shortest paths tie
        everywhere, distances stay bit-equal, and whichever path the
        hierarchy unpacks is a real one of exactly that length."""
        rng = np.random.default_rng(seed)
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                for w in ((v + 1) if c + 1 < cols else None, (v + cols) if r + 1 < rows else None):
                    if w is None:
                        continue
                    way = rng.integers(3)  # 0: both ways, 1: v -> w only, 2: w -> v only
                    if way != 2:
                        edges.append((v, w, 100.0))
                    if way != 1:
                        edges.append((w, v, 100.0))
        xy = [(100.0 * (v % cols), 100.0 * (v // cols)) for v in range(rows * cols)]
        net = RoadNetwork(xy, edges)
        n = net.num_vertices
        want = csgraph.dijkstra(net.to_csr())
        hierarchy = ContractionHierarchy.build(net)
        assert np.array_equal(_all_pairs(hierarchy, n), want)
        for a in range(n):
            for b in range(n):
                path = hierarchy.path(a, b)
                if np.isinf(want[a, b]):
                    assert path is None
                else:
                    assert is_path(net, path) and net.path_length_m(path) == want[a, b]

    def test_ch40_run_identical_on_the_reference_hierarchy(self, monkeypatch):
        """A trimmed ``cold-ch`` cell — the CH40 city, ``mt-share``, 100
        requests — once on the hierarchy contracted in rounds and once on
        the sequential reference, patched in for ``ContractionHierarchy.
        build``: the same decisions in the same order, the same trips and
        fingerprint, the same shortcut steps unpacked."""
        from repro.sim.scenario import ScenarioSpec

        scenario = Scenario(ScenarioSpec(
            kind="peak", grid_rows=40, grid_cols=40, spacing_m=180.0, hourly_requests=800,
            history_days=1, num_partitions=36, sp_mode="ch", seed=1,
        ))
        network = scenario.network
        scenario.landmark_graph()  # built once, on neither of the two engines
        runs, shortcuts = {}, {}
        for label, build in (
            ("rounds", ContractionHierarchy.build),
            ("reference", reference_ch_build),
        ):
            with monkeypatch.context() as patched:
                patched.setattr(ContractionHierarchy, "build", staticmethod(build))
                scenario.engine = ShortestPathEngine(network, mode="ch")
            shortcuts[label] = scenario.engine.stats()["sp.ch.shortcuts"]
            decisions = []
            sim = Simulator(
                scenario.make_scheme("mt-share"),
                scenario.make_fleet(100, seed=1),
                scenario.requests(seed=1)[:100],
                payment=PaymentModel(),
            )
            sim.on_decision = lambda request, now, matched, taxi_id, _elapsed_s, kind: (
                decisions.append((request.request_id, now, matched, taxi_id, kind))
            )
            metrics = sim.run()
            trips = [
                (rid, t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
                for rid, t in sorted(sim.log.trips.items())
            ]
            runs[label] = (decisions, trips, decision_fingerprint(metrics),
                           scenario.engine.stats()["sp.ch.rect_steps"])
        assert shortcuts["rounds"] != shortcuts["reference"], "one build ran twice"
        assert len(runs["rounds"][0]) == 100 and runs["rounds"][1], "cell served nothing"
        assert runs["rounds"] == runs["reference"]


def weighted_path(net, u, v, weights):
    """The probabilistic router's step: vertex weights folded into the
    in-edges of the whole graph's induced subgraph."""
    sub = net.induced_subgraph(frozenset(range(net.num_vertices)))
    w_local = np.array([weights.get(int(c), 0.0) for c in sub.nodes])
    return CorridorGraph.build(sub, w_local).shortest_path(u, v)


class TestDijkstraRestricted:
    def test_unrestricted_matches_engine(self, tiny_net, tiny_engine):
        cost, path = dijkstra_restricted(tiny_net, 0, 8, frozenset(range(9)))
        assert cost == pytest.approx(tiny_engine.cost(0, 8))
        assert is_path(tiny_net, path)

    def test_allowed_set_respected(self, tiny_net):
        # Only the top row detour is allowed: 0-3-6-7-8.
        allowed = frozenset({0, 3, 6, 7, 8})
        _cost, path = dijkstra_restricted(tiny_net, 0, 8, allowed)
        assert set(path) <= allowed

    def test_endpoints_outside_allowed_are_refused(self, tiny_net):
        with pytest.raises(ValueError, match="inside the subgraph"):
            dijkstra_restricted(tiny_net, 0, 2, frozenset({0, 1}))

    def test_equal_endpoints_outside_allowed_are_refused(self, tiny_net):
        """Validation comes before the ``source == target`` shortcut, in
        both searches: ``3 -> 3`` outside ``{5, 6}`` fails as ``3 -> 4`` does."""
        allowed = frozenset({5, 6})
        for target in (3, 4):
            with pytest.raises(ValueError, match="inside the subgraph"):
                dijkstra_restricted(tiny_net, 3, target, allowed)
            graph = CorridorGraph.build(tiny_net.induced_subgraph(allowed), np.zeros(2))
            with pytest.raises(ValueError, match="inside the subgraph"):
                graph.shortest_path(3, target)

    def test_disconnection_raises(self, tiny_net):
        with pytest.raises(PathNotFound):
            dijkstra_restricted(tiny_net, 0, 8, frozenset({0, 8}))

    def test_vertex_weights_steer(self, tiny_net):
        # Two equal-cost 0->2 alternatives exist via 1; penalise vertex 1
        # heavily and the path must avoid it.
        _cost, path = weighted_path(tiny_net, 0, 2, {1: 1e6})
        assert 1 not in path

    def test_weighted_cost_includes_weights(self, tiny_net):
        base_cost, _ = weighted_path(tiny_net, 0, 2, {})
        w_cost, _ = weighted_path(tiny_net, 0, 2, {5: 7.5, 2: 2.5})
        # 0->1->2 avoids 5; weight on target 2 still applies.
        assert w_cost == pytest.approx(base_cost + 2.5)

    def test_source_equals_target(self, tiny_net):
        cost, path = dijkstra_restricted(tiny_net, 3, 3, frozenset({3}))
        assert cost == 0.0
        assert path == [3]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_matches_engine_everywhere(self, u, v):

        net = small_test_network()
        eng = ShortestPathEngine(net)
        cost, path = dijkstra_restricted(net, u, v, frozenset(range(9)))
        assert cost == pytest.approx(eng.cost(u, v))
        assert is_path(net, path)
