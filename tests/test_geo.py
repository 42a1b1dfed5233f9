"""Unit tests for the geographic primitives."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from repro.network.geo import cosine_similarity, cosine_table

finite = st.floats(min_value=-5e4, max_value=5e4, allow_nan=False)


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


#: A rescaled direction whose norm ``np.hypot`` rounds up from
#: ``math.hypot``'s (one of ~0.5 % of such units round either way).
HYPOT_SPLIT = (1.0, -0.20888715789514256)

#: Components from ordinary offsets, zeros and denormals: the inputs
#: ``cosine_similarity`` rescales before taking norms.
component = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308]),
)
vectors = st.lists(st.tuples(component, component), min_size=1, max_size=6)


class TestCosineTable:
    def test_the_split_unit_is_one(self):
        assert float(np.hypot(*HYPOT_SPLIT)) > math.hypot(*HYPOT_SPLIT)

    @given(vectors, vectors)
    @example([HYPOT_SPLIT], [(1.0, 0.0)])
    @example([(0.0, 0.0), (5e-324, 0.0), (3.0, 4.0)], [(1e-310, -5e-324), (0.0, 0.0)])
    def test_is_the_scalar_cosine_bit_for_bit(self, a, b):
        table = cosine_table(np.array(a).reshape(-1, 2), np.array(b).reshape(-1, 2))
        assert table.tolist() == [[cosine_similarity(*u, *v) for v in b] for u in a]
