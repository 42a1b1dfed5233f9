"""Tests for the internal k-means implementation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.partitioning.kmeans import KMeansResult, kmeans
from tests.oracles import reference_kmeans


def blobs(seed=0, per=30):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    return np.vstack([c + rng.normal(0, 0.5, size=(per, 2)) for c in centers])


class TestKMeans:
    def test_separated_blobs_recovered(self):
        data = blobs()
        result = kmeans(data, 3, seed=1)
        # Each blob of 30 should land in one cluster.
        assert sorted(np.bincount(result.labels, minlength=3).tolist()) == [30, 30, 30]

    def test_label_range(self):
        result = kmeans(blobs(), 3, seed=1)
        assert set(result.labels) <= {0, 1, 2}
        assert result.centers.shape[0] == 3

    def test_deterministic_for_seed(self):
        data = blobs()
        a = kmeans(data, 3, seed=5)
        b = kmeans(data, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_k_clamped_to_samples(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(data, 10, seed=0)
        assert result.centers.shape[0] == 2

    def test_k_one(self):
        data = blobs()
        result = kmeans(data, 1, seed=0)
        assert (result.labels == 0).all()
        assert np.allclose(result.centers[0], data.mean(axis=0))

    def test_duplicate_points(self):
        data = np.zeros((10, 2))
        result = kmeans(data, 3, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans(blobs(), 0)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)

    def test_result_type(self):
        assert isinstance(kmeans(blobs(), 2, seed=0), KMeansResult)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=5, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=50),
    )
    def test_invariants(self, n, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 3))
        result = kmeans(data, k, seed=seed)
        k_eff = min(k, n)
        assert result.labels.shape == (n,)
        assert result.centers.shape == (k_eff, 3)
        assert result.inertia >= 0.0
        # Every label used (empty clusters are re-seeded).
        assert set(result.labels) == set(range(k_eff)) or n < k_eff

    def test_inertia_decreases_with_more_clusters(self):
        data = blobs(seed=3)
        i2 = kmeans(data, 2, seed=0).inertia
        i6 = kmeans(data, 6, seed=0).inertia
        assert i6 <= i2


class TestAgainstTheReferenceLoop:
    """The flat ``bincount`` update and the ``searchsorted`` seeding are
    the per-cluster ``mean`` loop and ``rng.choice`` draws of
    :func:`tests.oracles.reference_kmeans`, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        d=st.sampled_from([2, 3, 5, 36]),
        k=st.integers(min_value=1, max_value=12),
        distinct=st.integers(min_value=1, max_value=80),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # Fewer distinct samples than clusters: identical samples share a
    # label, so clusters are empty at every iteration and get re-seeded,
    # and the seeding runs out of D^2 mass.
    @example(n=40, d=2, k=7, distinct=3, scale=1.0, seed=5)
    def test_matches_the_reference(self, n, d, k, distinct, scale, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(min(distinct, n), d)) * scale
        data = points[rng.integers(len(points), size=n)]
        result = kmeans(data, k, seed=seed)
        labels, centers, inertia, iterations = reference_kmeans(data, k, seed=seed)
        assert result.labels.tobytes() == labels.tobytes()
        assert np.array_equal(result.centers, centers)
        assert result.inertia == inertia
        assert result.iterations == iterations

    def test_a_cluster_emptied_mid_run_is_reseeded_like_the_reference(self):
        # Found by search: on these 29 samples one of ten clusters empties
        # during Lloyd's iterations while the residuals are positive, so
        # the re-seed takes a real worst fit (the example above re-seeds
        # where every residual is 0).
        rng = np.random.default_rng(18315)
        n, k, d = int(rng.integers(4, 40)), int(rng.integers(2, 12)), int(rng.choice([2, 3]))
        data = rng.normal(size=(n, d))
        assert (n, k, d) == (29, 10, 2)
        result = kmeans(data, k, seed=18315)
        labels, centers, inertia, iterations = reference_kmeans(data, k, seed=18315)
        assert result.labels.tobytes() == labels.tobytes()
        assert np.array_equal(result.centers, centers)
        assert (result.inertia, result.iterations) == (inertia, iterations)
