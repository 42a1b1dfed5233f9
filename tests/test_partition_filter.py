"""Tests for partition filtering (Algorithm 2)."""

import pytest

from repro.core import partition_filter
from repro.core.partition_filter import PartitionFilter
from repro.network.landmarks import LandmarkGraph


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
