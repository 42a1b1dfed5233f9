"""Tests for the transition-probability model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioning.transition import TransitionModel


def simple_model():
    """4 vertices, 2 clusters (vertices 0,1 -> cluster 0; 2,3 -> cluster 1)."""
    labels = np.array([0, 0, 1, 1])
    trips = np.array(
        [
            [0, 2],  # from 0 to cluster 1
            [0, 3],  # from 0 to cluster 1
            [0, 1],  # from 0 to cluster 0
            [1, 2],  # from 1 to cluster 1
        ]
    )
    return TransitionModel.fit(trips, labels, 2)


class TestFit:
    def test_rows_are_distributions(self):
        model = simple_model()
        assert np.allclose(model.matrix.sum(axis=1), 1.0)

    def test_observed_probabilities(self):
        model = simple_model()
        assert model.prob(0, 1) == pytest.approx(2 / 3)
        assert model.prob(0, 0) == pytest.approx(1 / 3)
        assert model.prob(1, 1) == pytest.approx(1.0)

    def test_unobserved_vertex_gets_marginal(self):
        model = simple_model()
        # Vertex 3 has no pickups: falls back to the global marginal
        # (1 trip to cluster 0, 3 trips to cluster 1).
        assert model.vector(3) == pytest.approx([0.25, 0.75])

    def test_pickup_counts(self):
        model = simple_model()
        assert model.pickup_count(0) == 3
        assert model.pickup_count(1) == 1
        assert model.pickup_count(3) == 0

    def test_pickup_frequency_sums_to_one(self):
        model = simple_model()
        total = sum(model.pickup_frequency(v) for v in range(4))
        assert total == pytest.approx(1.0)

    def test_relative_pickup_frequency(self):
        model = simple_model()
        assert model.relative_pickup_frequency(0) == pytest.approx(1.0)
        assert model.relative_pickup_frequency(1) == pytest.approx(1 / 3)
        assert model.relative_pickup_frequency(3) == 0.0

    def test_no_trips(self):
        model = TransitionModel.fit(np.empty((0, 2), dtype=int), np.array([0, 1]), 2)
        assert np.allclose(model.matrix, 0.5)
        assert model.pickup_frequency(0) == 0.0

    def test_smoothing(self):
        labels = np.array([0, 1])
        trips = np.array([[0, 0]])
        model = TransitionModel.fit(trips, labels, 2, smoothing=1.0)
        # counts: [1+1, 0+1] -> [2/3, 1/3]
        assert model.vector(0) == pytest.approx([2 / 3, 1 / 3])

    def test_bad_trip_shape_rejected(self):
        with pytest.raises(ValueError):
            TransitionModel.fit(np.zeros((3, 3), dtype=int), np.array([0]), 1)


class TestQueries:
    def test_mass_to(self):
        model = simple_model()
        assert model.mass_to(0, [1]) == pytest.approx(2 / 3)
        assert model.mass_to(0, [0, 1]) == pytest.approx(1.0)
        assert model.mass_to(0, []) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=60),
           st.integers(min_value=2, max_value=40))
    def test_suitable_demand_is_the_scalar_methods_elementwise(self, seed, m, k):
        """``==``, not approx: the router's stored psi must be the very
        floats ``mass_to`` x ``relative_pickup_frequency`` produce."""
        rng = np.random.default_rng(seed)
        n = 30
        model = TransitionModel.fit(
            rng.integers(0, n, size=(m, 2)), rng.integers(0, k, size=n), k
        )  # m = 0: no pickups anywhere, peak 0
        verts = [int(v) for v in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
        dests = sorted(int(c) for c in rng.permutation(k)[: int(rng.integers(0, k + 1))])
        got = model.suitable_demand(verts, dests)
        want = [model.mass_to(v, dests) * model.relative_pickup_frequency(v) for v in verts]
        assert got.dtype == np.float64 and got.tolist() == want

    def test_suitable_demand_empty_destinations(self):
        assert simple_model().suitable_demand([0, 1, 3], []).tolist() == [0.0, 0.0, 0.0]

    def test_partition_probability_demand_weighted(self):
        model = simple_model()
        # Vertices {0, 1}, destinations {1}: weighted by pickup share.
        expected = (2 / 3) * (3 / 4) + 1.0 * (1 / 4)
        assert model.partition_probability([0, 1], [1]) == pytest.approx(expected)

    def test_partition_probability_unweighted(self):
        model = simple_model()
        expected = ((2 / 3) + 1.0) / 2
        assert model.partition_probability([0, 1], [1], weight_by_demand=False) == pytest.approx(
            expected
        )

    def test_partition_probability_empty(self):
        model = simple_model()
        assert model.partition_probability([], [1]) == 0.0
        assert model.partition_probability([0], []) == 0.0

    def test_memory(self):
        assert simple_model().memory_bytes() > 0


class TestValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            TransitionModel(np.array([[0.5, 0.2]]), np.array([1.0]))

    def test_pickup_length_checked(self):
        with pytest.raises(ValueError):
            TransitionModel(np.array([[1.0]]), np.array([1.0, 2.0]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=100))
    def test_fit_always_stochastic(self, m, k, seed):
        rng = np.random.default_rng(seed)
        n = 12
        labels = rng.integers(0, k, size=n)
        trips = rng.integers(0, n, size=(m, 2))
        model = TransitionModel.fit(trips, labels, k)
        assert np.allclose(model.matrix.sum(axis=1), 1.0, atol=1e-9)
        assert (model.matrix >= 0).all()
