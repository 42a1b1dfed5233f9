"""Tests for bipartite, geographic and grid map partitioning."""

import numpy as np
import pytest

from repro.partitioning.bipartite import (
    MapPartitioning,
    bipartite_partition,
    geo_partition,
)
from repro.partitioning.grid import grid_labels, grid_partition


class TestMapPartitioning:
    def test_labels_must_be_contiguous(self):
        with pytest.raises(ValueError):
            MapPartitioning(labels=np.array([0, 2, 2]), method="x")

    def test_labels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            MapPartitioning(labels=np.array([]), method="x")

    def test_partitions_cover_vertices(self):
        part = MapPartitioning(labels=np.array([0, 1, 0, 1, 2]), method="x")
        assert part.num_partitions == 3
        covered = sorted(v for p in part.partitions for v in p)
        assert covered == [0, 1, 2, 3, 4]

    def test_partition_of(self):
        part = MapPartitioning(labels=np.array([1, 0, 1]), method="x")
        assert part.partitions == [[1], [0, 2]]

    def test_sizes(self):
        part = MapPartitioning(labels=np.array([0, 0, 1]), method="x")
        assert part.sizes().tolist() == [2, 1]


class TestBipartite:
    def test_roughly_requested_count(self, small_net, small_trips):
        part = bipartite_partition(small_net, small_trips, num_partitions=10,
                                   num_transition_clusters=4, seed=1)
        assert 5 <= part.num_partitions <= 20
        assert part.method == "bipartite"
        assert part.iterations >= 1

    def test_transition_model_attached(self, small_partitioning):
        model = small_partitioning.transition_model
        assert model is not None
        assert model.matrix.shape[1] == small_partitioning.num_partitions

    def test_every_vertex_assigned(self, small_net, small_partitioning):
        assert small_partitioning.labels.shape == (small_net.num_vertices,)

    def test_deterministic(self, small_net, small_trips):
        a = bipartite_partition(small_net, small_trips, 8, num_transition_clusters=3, seed=9)
        b = bipartite_partition(small_net, small_trips, 8, num_transition_clusters=3, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_partitions_are_geographically_coherent(self, small_net, small_partitioning):
        # Mean member distance to the partition centroid should be much
        # smaller than the city extent.
        xy = np.asarray(small_net.xy)
        extent = xy.max() - xy.min()
        for members in small_partitioning.partitions:
            pts = xy[members]
            c = pts.mean(axis=0)
            spread = np.hypot(*(pts - c).T).mean()
            assert spread < extent / 2

    def test_single_partition(self, small_net, small_trips):
        part = bipartite_partition(small_net, small_trips, 1, num_transition_clusters=1)
        assert part.num_partitions == 1

    def test_invalid_kappa(self, small_net, small_trips):
        with pytest.raises(ValueError):
            bipartite_partition(small_net, small_trips, 0)


class TestGeoPartition:
    def test_basic(self, small_net, small_trips):
        part = geo_partition(small_net, 8, historical_trips=small_trips)
        assert part.method == "geo-kmeans"
        assert part.num_partitions == 8
        assert part.transition_model is not None

    def test_without_trips_no_model(self, small_net):
        part = geo_partition(small_net, 4)
        assert part.transition_model is None


class TestGrid:
    def test_grid_labels_shape(self):
        xy = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        labels = grid_labels(xy, 2, 2)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_boundary_points_fall_in_last_cell(self):
        xy = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels = grid_labels(xy, 2, 2)
        assert labels[1] == 3

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            grid_labels(np.zeros((2, 2)), 0, 2)

    def test_grid_partition_drops_empty_cells(self, small_net, small_trips):
        part = grid_partition(small_net, 9, historical_trips=small_trips)
        assert part.method == "grid"
        assert 1 <= part.num_partitions <= 9
        assert part.transition_model is not None

    def test_grid_partition_covers_all(self, small_net):
        part = grid_partition(small_net, 16)
        assert sum(len(p) for p in part.partitions) == small_net.num_vertices

    def test_invalid_count(self, small_net):
        with pytest.raises(ValueError):
            grid_partition(small_net, 0)
