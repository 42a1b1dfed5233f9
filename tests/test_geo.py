"""Unit tests for the geographic primitives."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.network.geo import Point, cosine_similarity

finite = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)


class TestPoint:
    def test_distance_to_self_is_zero(self):
        p = Point(3.0, 4.0)
        assert p.distance_to(p) == 0.0

    def test_distance_is_euclidean(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_unpacking(self):
        x, y = Point(1.5, -2.5)
        assert (x, y) == (1.5, -2.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Point(0.0, 0.0).x = 1.0


class TestCosineSimilarity:
    def test_parallel(self):
        assert cosine_similarity(1.0, 0.0, 2.0, 0.0) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(1.0, 0.0, 0.0, 1.0) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine_similarity(1.0, 1.0, -1.0, -1.0) == pytest.approx(-1.0)

    def test_zero_vector_counts_as_aligned(self):
        # Degenerate vectors impose no directional constraint.
        assert cosine_similarity(0.0, 0.0, 1.0, 2.0) == 1.0
        assert cosine_similarity(1.0, 2.0, 0.0, 0.0) == 1.0

    @given(finite, finite, finite, finite)
    def test_bounded(self, ax, ay, bx, by):
        v = cosine_similarity(ax, ay, bx, by)
        assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9

    @given(finite, finite, st.floats(min_value=0.1, max_value=100.0))
    def test_scale_invariant(self, ax, ay, k):
        # Subnormal magnitudes underflow to a true zero vector when
        # scaled, which legitimately changes the answer — skip them.
        assume(math.hypot(ax, ay) > 1e-12)
        v1 = cosine_similarity(ax, ay, 3.0, 4.0)
        v2 = cosine_similarity(ax * k, ay * k, 3.0, 4.0)
        assert v1 == pytest.approx(v2, abs=1e-9)
