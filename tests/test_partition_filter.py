"""Tests for partition filtering (Algorithm 2)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import partition_filter
from repro.core.partition_filter import PartitionFilter, filter_row
from repro.network.geo import cosine_similarity
from repro.network.landmarks import LandmarkGraph
from tests.oracles import reference_filter_partitions
from tests.test_geo import HYPOT_SPLIT, component


@pytest.fixture(scope="module")
def row_lg(tiny_net, tiny_engine):
    """3x3 grid partitioned into its three rows."""
    return LandmarkGraph(tiny_net, [[0, 1, 2], [3, 4, 5], [6, 7, 8]], tiny_engine)


class TestFilter:
    def test_same_partition(self, row_lg):
        pf = PartitionFilter(row_lg)
        assert pf.filter_partitions(1, 1) == [1]

    def test_endpoints_always_retained(self, row_lg, monkeypatch):
        monkeypatch.setattr(partition_filter, "EPSILON", 0.0)
        pf = PartitionFilter(row_lg, lam=0.999)
        retained = pf.filter_partitions(0, 2)
        assert 0 in retained and 2 in retained

    def test_on_the_way_partition_retained(self, row_lg):
        pf = PartitionFilter(row_lg, lam=0.707)
        # Going from row 0 to row 2 passes row 1: direction is straight
        # north and the cost via row 1's landmark equals the direct cost.
        assert 1 in pf.filter_partitions(0, 2)

    def test_cost_rule_excludes_detours(self, small_landmarks, monkeypatch):
        k = small_landmarks.num_partitions
        pairs = [(a, b) for a in range(min(4, k)) for b in range(min(4, k)) if a != b]

        def retained(epsilon):
            monkeypatch.setattr(partition_filter, "EPSILON", epsilon)
            pf = PartitionFilter(small_landmarks, lam=-1.0)
            return [set(pf.filter_partitions(a, b)) for a, b in pairs]

        for strict, loose in zip(retained(0.0), retained(10.0)):
            assert strict <= loose

    def test_direction_rule_excludes_backwards(self, small_landmarks, monkeypatch):
        # With an extreme cost allowance, direction is the only filter:
        # lam close to 1 keeps nearly nothing beyond the endpoints.
        monkeypatch.setattr(partition_filter, "EPSILON", 100.0)
        narrow = PartitionFilter(small_landmarks, lam=0.9999)
        wide = PartitionFilter(small_landmarks, lam=-1.0)
        k = small_landmarks.num_partitions
        a, b = 0, k - 1
        assert len(narrow.filter_partitions(a, b)) <= len(wide.filter_partitions(a, b))

    def test_memoisation(self, row_lg):
        pf = PartitionFilter(row_lg)
        first = pf.filter_partitions(0, 2)
        assert pf.filter_partitions(0, 2) is first
        assert pf.corridor_vertices(first) is pf.corridor_vertices(tuple(first))

    def test_allowed_vertices(self, row_lg):
        pf = PartitionFilter(row_lg)
        allowed = pf.allowed_vertices(0, 2)
        assert {0, 1, 2, 6, 7, 8} <= set(allowed)
        # memoised
        assert pf.allowed_vertices(0, 2) is pf.allowed_vertices(0, 2)


@st.composite
def landmark_layouts(draw, max_partitions=6):
    """``(kappa, 2)`` landmark coordinates with coincident landmarks
    (zero offsets) and denormal offsets among them."""
    k = draw(st.integers(min_value=1, max_value=max_partitions))
    points = draw(st.lists(st.tuples(component, component), min_size=k, max_size=k))
    for i in range(1, k):
        if draw(st.integers(0, 3)) == 0:
            points[i] = points[draw(st.integers(0, i - 1))]
    return np.array(points, dtype=np.float64).reshape(k, 2)


def offset(xy, a, source):
    return (float(xy[a][0]) - float(xy[source][0]), float(xy[a][1]) - float(xy[source][1]))


@st.composite
def filter_cases(draw):
    """A layout, landmark costs, a source and a ``lambda`` — half the
    time one of the layout's own cosines, where a last-place error in
    the cosine flips a verdict, else anything up to 1.5."""
    xy = draw(landmark_layouts())
    k = len(xy)
    costs = draw(st.lists(st.floats(0.0, 1e4) | st.just(math.inf), min_size=k * k, max_size=k * k))
    cost = np.array(costs).reshape(k, k)
    np.fill_diagonal(cost, 0.0)
    pz = draw(st.integers(0, k - 1))
    if draw(st.booleans()):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        lam = cosine_similarity(*offset(xy, a, pz), *offset(xy, b, pz))
    else:
        # Above 1 no direction passes: only the endpoint rule keeps.
        lam = draw(st.floats(-1.0, 1.5))
    return xy, cost, pz, lam


#: Source at the origin, partition 1 along HYPOT_SPLIT (whose norm
#: np.hypot rounds up) and partition 2 along (1, 0); lambda is their
#: scalar cosine, so partition 1 is kept on the way to 2 only when the
#: norm is math.hypot's.
_SPLIT_CASE = (
    np.array([(0.0, 0.0), HYPOT_SPLIT, (1.0, 0.0)]),
    np.zeros((3, 3)),
    0,
    cosine_similarity(*HYPOT_SPLIT, 1.0, 0.0),
)


@settings(max_examples=200, deadline=None)
@given(case=filter_cases(), epsilon=st.sampled_from([0.0, 1.0, 10.0]))
@example(case=_SPLIT_CASE, epsilon=1.0)
@example(case=(np.array([(0.0, 0.0), (0.0, 0.0), (5e-324, 0.0)]), np.ones((3, 3)), 0, 0.99),
         epsilon=1.0)
def test_row_fill_is_the_scalar_loop(case, epsilon):
    xy, cost, pz, lam = case
    with mock.patch.object(partition_filter, "EPSILON", epsilon):
        rows = filter_row(xy, cost, pz, lam)
        assert rows == [
            reference_filter_partitions(xy, cost, pz, pz1, lam) for pz1 in range(len(xy))
        ]


def test_filter_on_a_city_is_the_scalar_loop(small_landmarks):
    """Every (source, destination) pair of a real landmark graph, asked
    in an order that fills rows out of turn."""
    k = small_landmarks.num_partitions
    pf = PartitionFilter(small_landmarks, lam=0.5)
    xy = np.array([small_landmarks.landmark_xy(z) for z in range(k)])
    cost = np.array([small_landmarks.landmark_cost_row(z) for z in range(k)])
    for pz1 in reversed(range(k)):
        for pz in range(k):
            assert pf.filter_partitions(pz, pz1) == reference_filter_partitions(
                xy, cost, pz, pz1, 0.5
            )
