"""Tests for the partition-based taxi index (P_z.L_t lists)."""

import numpy as np
import pytest

from repro.index.partition_index import HORIZON_S, PartitionTaxiIndex


def partitions_of(idx, taxi_id):
    """The partitions whose list holds ``taxi_id``, read from the
    arrival table the window screen reads."""
    ids, table = idx.arrival_table()
    if taxi_id not in ids:
        return set()
    return set(np.flatnonzero(~np.isnan(table[:, ids.index(taxi_id)])).tolist())


class TestValidation:
    def test_needs_partitions(self):
        with pytest.raises(ValueError):
            PartitionTaxiIndex(0)


class TestUpdates:
    def test_update_and_query(self):
        idx = PartitionTaxiIndex(4)
        idx.update_taxi(7, {0: 100.0, 2: 250.0})
        assert idx.arrival_map(0) == {7: 100.0}
        assert idx.arrival_map(2) == {7: 250.0}
        assert 7 not in idx.arrival_map(1)
        assert partitions_of(idx, 7) == {0, 2}

    def test_update_replaces(self):
        idx = PartitionTaxiIndex(4)
        idx.update_taxi(7, {0: 100.0})
        idx.update_taxi(7, {3: 50.0})
        assert idx.arrival_map(0) == {}
        assert idx.arrival_map(3) == {7: 50.0}

    def test_remove(self):
        idx = PartitionTaxiIndex(2)
        idx.update_taxi(1, {0: 5.0})
        idx.remove_taxi(1)
        assert idx.arrival_map(0) == {}
        assert partitions_of(idx, 1) == set()
        idx.remove_taxi(42)  # unknown: no-op

    def test_place_idle(self):
        idx = PartitionTaxiIndex(3)
        idx.place_idle_taxi(9, 1, now=42.0)
        assert idx.arrival_map(1) == {9: 42.0}

    def test_union(self):
        idx = PartitionTaxiIndex(3)
        idx.update_taxi(1, {0: 1.0})
        idx.update_taxi(2, {1: 1.0})
        idx.update_taxi(3, {0: 1.0, 2: 2.0})
        assert idx.union_taxis([0, 1]) == [1, 2, 3]
        assert idx.union_taxis([2]) == [3]
        assert idx.union_taxis([]) == []

    def test_union_sorted_by_id(self):
        # Candidate enumeration order must not depend on the hash seed.
        idx = PartitionTaxiIndex(2)
        for taxi_id in (17, 3, 42, 8, 25):
            idx.update_taxi(taxi_id, {0: float(taxi_id)})
        assert idx.union_taxis([0, 1]) == [3, 8, 17, 25, 42]


class TestFromRoute:
    def test_first_arrival_per_partition(self):
        idx = PartitionTaxiIndex(3)
        partition_of = {0: 0, 1: 0, 2: 1, 3: 2}.__getitem__
        idx.update_taxi_from_route(
            5,
            route_nodes=[0, 1, 2, 3],
            route_times=[0.0, 10.0, 20.0, 30.0],
            partition_of=partition_of,
            now=0.0,
        )
        assert idx.arrival_map(0) == {5: 0.0}   # first visit, not 10.0
        assert idx.arrival_map(1) == {5: 20.0}
        assert idx.arrival_map(2) == {5: 30.0}

    def test_horizon_truncates(self):
        idx = PartitionTaxiIndex(2)
        partition_of = {0: 0, 1: 1}.__getitem__
        idx.update_taxi_from_route(
            1, [0, 1], [10.0, 10.0 + HORIZON_S + 1.0], partition_of, now=10.0
        )
        assert idx.arrival_map(1) == {}
        idx.update_taxi_from_route(
            1, [0, 1], [10.0, 10.0 + HORIZON_S], partition_of, now=10.0
        )
        assert idx.arrival_map(1) == {1: 10.0 + HORIZON_S}

    def test_past_times_clamped_to_now(self):
        idx = PartitionTaxiIndex(1)
        idx.update_taxi_from_route(1, [0], [5.0], lambda v: 0, now=50.0)
        assert idx.arrival_map(0) == {1: 50.0}

    def test_total_entries_and_memory(self):
        idx = PartitionTaxiIndex(3)
        idx.update_taxi(1, {0: 1.0, 1: 2.0})
        idx.update_taxi(2, {2: 3.0})
        assert idx.total_entries() == 3
        assert idx.memory_bytes() > 0


class TestArrivalTable:
    def test_table_is_every_arrival_map_at_once(self):
        idx = PartitionTaxiIndex(3)
        idx.update_taxi(42, {0: 5.0, 2: 9.5})
        idx.update_taxi(7, {2: 1.25})
        idx.update_taxi(19, {1: 0.0})
        idx.update_taxi(19, {0: 3.0})  # replaced, not merged
        idx.update_taxi(8, {1: 2.0})
        idx.remove_taxi(8)
        ids, table = idx.arrival_table()
        assert ids == [7, 19, 42]
        assert table.shape == (3, 3) and table.dtype == np.float64
        for z in range(3):
            for j, tid in enumerate(ids):
                arrival = idx.arrival_map(z).get(tid)
                if arrival is None:
                    assert np.isnan(table[z, j])
                else:
                    assert table[z, j] == arrival
        table[:] = 0.0  # the caller owns it
        assert idx.arrival_map(2)[7] == 1.25

    def test_empty_index(self):
        ids, table = PartitionTaxiIndex(4).arrival_table()
        assert ids == [] and table.shape == (4, 0)
