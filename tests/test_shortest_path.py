"""Tests for the shortest-path engines and the restricted Dijkstra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.routing import CorridorGraph
from repro.network import shortest_path
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import (
    FULL_APSP_LIMIT,
    PathNotFound,
    ShortestPathEngine,
    dijkstra_restricted,
    resolve_sp_mode,
)
from repro.sim.scenario import Scenario
from tests.conftest import is_path, small_test_network


def _lazy_engine(net, rows):
    """A lazy engine whose source-row memo holds ``rows`` trees."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shortest_path, "LAZY_CACHE_SIZE", rows)
        return ShortestPathEngine(net, mode="lazy")


@pytest.fixture(scope="module")
def lazy_engine(small_net):
    return _lazy_engine(small_net, 8)


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

    def test_mode_resolution(self, monkeypatch):
        # The size rule alone: no environment variable moves ``auto``.
        monkeypatch.setenv("REPRO_SP_MODE", "ch")
        assert resolve_sp_mode("auto", 100) == "full"
        assert resolve_sp_mode("auto", FULL_APSP_LIMIT) == "full"
        # Above the limit the size rule picks the row memo.
        assert resolve_sp_mode("auto", FULL_APSP_LIMIT + 1) == "lazy"
        assert resolve_sp_mode("auto", 50_000) == "lazy"
        assert resolve_sp_mode("lazy", 50_000) == "lazy"
        assert resolve_sp_mode("full", 50_000) == "full"
        # The removed hierarchy backend's name is refused like any other.
        for name in ("bogus", "ch"):
            with pytest.raises(ValueError):
                resolve_sp_mode(name, 100)

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
        store = get_store()
        assert store.entries("ch") == [] and store.entries("apsp") == []

    def test_ch_spelling_is_the_lazy_spec(self, tmp_path, monkeypatch):
        """``sp_mode="ch"`` names the removed hierarchy backend: the spec
        is rewritten to ``lazy``, so it equals the ``lazy`` spec, builds a
        ``lazy`` engine and stores no ``ch`` artifact; an engine asked
        for ``ch`` directly refuses."""
        from repro.artifacts import get_store
        from repro.sim.scenario import ScenarioSpec

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        fields = dict(grid_rows=8, grid_cols=8, spacing_m=150.0, hourly_requests=50,
                      history_days=1, num_partitions=4, offline_count=5, seed=2)
        spec = ScenarioSpec(**fields, sp_mode="ch")
        assert spec == ScenarioSpec(**fields, sp_mode="lazy") and spec.sp_mode == "lazy"
        scenario = Scenario(spec)
        assert scenario.engine.mode == "lazy"
        store = get_store()
        assert store.entries("ch") == [] and store.entries("trace")
        with pytest.raises(ValueError):
            ShortestPathEngine(scenario.network, mode="ch")


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
