"""Tests for the partition-based taxi index (P_z.L_t lists)."""

import numpy as np
import pytest

from repro.fleet.table import FleetTable
from repro.fleet.taxi import Taxi
from repro.index.partition_index import HORIZON_S, PartitionTaxiIndex


def partitions_of(idx, taxi_id, num_partitions):
    """The partitions whose list holds ``taxi_id``."""
    return {z for z in range(num_partitions) if taxi_id in idx.arrival_map(z)}


def attached(num_partitions, taxi_ids):
    """A fresh index writing into a fleet table of ``taxi_ids``."""
    table = FleetTable(
        {tid: Taxi(taxi_id=tid, capacity=3, loc=0) for tid in taxi_ids}, num_partitions
    )
    idx = PartitionTaxiIndex(num_partitions)
    idx.attach(table)
    return idx, table


def assert_columns_mirror_lists(idx, table):
    """Every arrivals cell equals its partition list entry, NaN where unlisted."""
    for z in range(table.arrivals.shape[0]):
        for row, taxi in enumerate(table.taxis):
            arrival = idx.arrival_map(z).get(taxi.taxi_id)
            if arrival is None:
                assert np.isnan(table.arrivals[z, row])
            else:
                assert table.arrivals[z, row] == arrival


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
        assert partitions_of(idx, 7, 4) == {0, 2}

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
        assert partitions_of(idx, 1, 2) == set()
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


class TestArrivalColumns:
    def test_columns_are_every_arrival_map_at_once(self):
        idx, table = attached(3, [42, 7, 19, 8, 5])
        assert [taxi.taxi_id for taxi in table.taxis] == [5, 7, 8, 19, 42]
        assert table.arrivals.shape == (3, 5) and table.arrivals.dtype == np.float64
        idx.update_taxi(42, {0: 5.0, 2: 9.5})
        idx.update_taxi(7, {2: 1.25})
        idx.update_taxi(19, {1: 0.0})
        idx.update_taxi(19, {0: 3.0})  # replaced, not merged
        idx.update_taxi(8, {1: 2.0})
        idx.remove_taxi(8)
        assert_columns_mirror_lists(idx, table)
        assert np.isnan(table.arrivals[:, 0]).all()  # taxi 5: never indexed
        assert table.arrivals[:, 3].tolist()[0] == 3.0 and np.isnan(table.arrivals[1, 3])

    def test_ids_without_a_row_stay_in_the_lists(self):
        idx, table = attached(4, [1])
        idx.update_taxi(99, {2: 7.0})
        idx.place_idle_taxi(1, 3, now=4.0)
        assert idx.arrival_map(2) == {99: 7.0}
        assert_columns_mirror_lists(idx, table)
        idx.remove_taxi(99)
        assert idx.arrival_map(2) == {} and table.arrivals[3, 0] == 4.0
