"""Tests for landmarks and the landmark graph."""

import numpy as np
import pytest

from repro.network.landmarks import LandmarkGraph
from repro.network.shortest_path import ShortestPathEngine


class TestValidation:
    def test_partitions_must_cover(self, tiny_net, tiny_engine):
        with pytest.raises(ValueError):
            LandmarkGraph(tiny_net, [[0, 1, 2]], tiny_engine)

    def test_partitions_must_not_overlap(self, tiny_net, tiny_engine):
        parts = [[0, 1, 2, 3], [3, 4, 5, 6, 7, 8]]
        with pytest.raises(ValueError):
            LandmarkGraph(tiny_net, parts, tiny_engine)

    def test_engine_network_must_match(self, tiny_net, small_net, small_engine):
        with pytest.raises(ValueError):
            LandmarkGraph(tiny_net, [list(range(9))], small_engine)


class TestStructure:
    @pytest.fixture(scope="class")
    def lg(self, tiny_net, tiny_engine):
        # Rows of the 3x3 grid as partitions.
        parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        return LandmarkGraph(tiny_net, parts, tiny_engine)

    def test_counts(self, lg):
        assert lg.num_partitions == 3
        assert len(lg.to_tables()["landmarks"]) == 3

    def test_landmark_is_row_middle(self, lg):
        # The medoid of each 3-vertex row is its middle vertex.
        assert [lg.landmark(z) for z in range(3)] == [1, 4, 7]

    def test_partition_of(self, lg):
        assert lg.partition_of(0) == 0
        assert lg.partition_of(4) == 1
        assert lg.partition_of(8) == 2

    def test_partition_of_many(self, lg):
        assert lg.partition_of_many([0, 4, 8]).tolist() == [0, 1, 2]

    def test_adjacency(self, lg):
        assert lg.neighbors(0) == (1,)
        assert lg.neighbors(1) == (0, 2)

    def test_landmark_costs_symmetric_grid(self, lg, tiny_net):
        c01 = lg.landmark_cost(0, 1)
        assert c01 == pytest.approx(100.0 / tiny_net.speed_mps)
        assert lg.landmark_cost(1, 0) == pytest.approx(c01)
        assert lg.landmark_cost(2, 2) == 0.0

    def test_landmark_cost_matrix(self, lg):
        mat = lg.to_tables()["landmark_cost"]
        assert mat.shape == (3, 3)
        assert np.allclose(np.diag(mat), 0.0)

    def test_centroid_and_radius(self, lg):
        c = lg.to_tables()["centroids"][0]
        assert c[0] == pytest.approx(100.0)
        assert c[1] == pytest.approx(0.0)
        assert lg.radius(0) == pytest.approx(100.0)

    def test_landmark_xy(self, lg):
        assert lg.landmark_xy(0) == (100.0, 0.0)

    def test_disc_query(self, lg):
        # The query is conservative (bounding-disc intersection): a tiny
        # disc at the grid centre touches all three row discs.
        assert lg.partitions_intersecting_disc(100.0, 100.0, 10.0) == [0, 1, 2]
        # A disc far outside the city hits nothing.
        assert lg.partitions_intersecting_disc(2000.0, 2000.0, 10.0) == []
        # A disc centred on the bottom row's landmark with zero radius
        # still includes that row.
        assert 0 in lg.partitions_intersecting_disc(100.0, 0.0, 0.0)

    def test_members(self, lg):
        assert lg.members(2) == [6, 7, 8]

    def test_memory(self, lg):
        assert lg.memory_bytes() > 0


class TestLazyEngineMedoid:
    def test_lazy_mode_uses_euclidean_medoid(self, tiny_net):
        engine = ShortestPathEngine(tiny_net, mode="lazy")
        lg = LandmarkGraph(tiny_net, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], engine)
        assert [lg.landmark(z) for z in range(3)] == [1, 4, 7]


class TestOnScenarioPartitions:
    def test_real_partitioning_integrates(self, small_landmarks, small_net):
        lg = small_landmarks
        assert lg.num_partitions >= 5
        for z in range(lg.num_partitions):
            assert lg.partition_of(lg.landmark(z)) == z
        # all vertices covered exactly once
        seen = sorted(v for z in range(lg.num_partitions) for v in lg.members(z))
        assert seen == list(range(small_net.num_vertices))


class TestAdjacencyOrderDeterminism:
    """Regression for the PR 3 bug class: adjacency must have an
    explicit, hash-seed-independent iteration order."""

    def test_neighbors_are_sorted_tuples(self, small_landmarks):
        lg = small_landmarks
        for z in range(lg.num_partitions):
            neigh = lg.neighbors(z)
            assert isinstance(neigh, tuple)
            assert list(neigh) == sorted(neigh)

    def test_table_round_trip_preserves_adjacency_exactly(
        self, small_landmarks, small_net, small_partitioning
    ):
        lg = small_landmarks
        restored = LandmarkGraph.from_tables(
            small_net, small_partitioning.partitions, lg.to_tables()
        )
        for z in range(lg.num_partitions):
            assert restored.neighbors(z) == lg.neighbors(z)
