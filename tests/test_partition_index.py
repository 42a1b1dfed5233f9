"""Tests for the partition-based taxi index (the ``P_z.L_t`` arrivals matrix)."""

import math

import numpy as np
import pytest

from repro.index.partition_index import HORIZON_S, PartitionTaxiIndex
from tests.oracles import ReferencePartitionIndex


def registered(num_partitions, taxi_ids):
    """A fresh index with a column for each of ``taxi_ids``."""
    idx = PartitionTaxiIndex(num_partitions)
    idx.register(taxi_ids)
    return idx


def listed_ids(idx, partitions):
    """The taxi ids of :meth:`listed_columns`, in column order."""
    return [idx.taxi_ids[k] for k in idx.listed_columns(partitions).tolist()]


def listed(idx, partition):
    """``partition``'s list: taxi id -> arrival."""
    row = idx.arrivals[partition].tolist()
    return {
        taxi_id: arrival
        for taxi_id, arrival in zip(idx.taxi_ids, row)
        if not math.isnan(arrival)
    }


def partitions_of(idx, taxi_id):
    """The partitions whose list holds ``taxi_id``."""
    return set(np.flatnonzero(~np.isnan(idx.arrivals[:, idx.column_of[taxi_id]])).tolist())


class TestValidation:
    def test_needs_partitions(self):
        with pytest.raises(ValueError):
            PartitionTaxiIndex(0)

    def test_unregistered_ids_raise(self):
        idx = registered(2, [1, 2])
        with pytest.raises(KeyError):
            idx.update_taxi(99, {0: 1.0})
        with pytest.raises(KeyError):
            idx.remove_taxi(99)


class TestUpdates:
    def test_update_and_query(self):
        idx = registered(4, [7])
        idx.update_taxi(7, {0: 100.0, 2: 250.0})
        assert listed(idx, 0) == {7: 100.0}
        assert listed(idx, 2) == {7: 250.0}
        assert 7 not in listed(idx, 1)
        assert partitions_of(idx, 7) == {0, 2}

    def test_update_replaces(self):
        idx = registered(4, [7])
        idx.update_taxi(7, {0: 100.0})
        idx.update_taxi(7, {3: 50.0})
        assert listed(idx, 0) == {}
        assert listed(idx, 3) == {7: 50.0}

    def test_remove(self):
        idx = registered(2, [1, 42])
        idx.update_taxi(1, {0: 5.0})
        idx.remove_taxi(1)
        assert listed(idx, 0) == {}
        assert partitions_of(idx, 1) == set()
        idx.remove_taxi(42)  # listed nowhere: no-op

    def test_place_idle(self):
        idx = registered(3, [9])
        idx.place_idle_taxi(9, 1, now=42.0)
        assert listed(idx, 1) == {9: 42.0}

    def test_union(self):
        idx = registered(3, [1, 2, 3, 4])
        idx.update_taxi(1, {0: 1.0})
        idx.update_taxi(2, {1: 1.0})
        idx.update_taxi(3, {0: 1.0, 2: 2.0})
        assert listed_ids(idx, [0, 1]) == [1, 2, 3]
        assert listed_ids(idx, [2]) == [3]
        assert idx.listed_columns([]).tolist() == []

    def test_union_sorted_by_id(self):
        # Candidate enumeration order must not depend on registration order.
        idx = registered(2, [17, 3, 42, 8, 25, 99])
        for taxi_id in (17, 3, 42, 8, 25):
            idx.update_taxi(taxi_id, {0: float(taxi_id)})
        assert listed_ids(idx, [0, 1]) == [3, 8, 17, 25, 42]


class TestFromRoute:
    def test_first_arrival_per_partition(self):
        idx = registered(3, [5])
        partition_of = {0: 0, 1: 0, 2: 1, 3: 2}.__getitem__
        idx.update_taxi_from_route(
            5,
            route_nodes=[0, 1, 2, 3],
            route_times=[0.0, 10.0, 20.0, 30.0],
            partition_of=partition_of,
            now=0.0,
        )
        assert listed(idx, 0) == {5: 0.0}   # first visit, not 10.0
        assert listed(idx, 1) == {5: 20.0}
        assert listed(idx, 2) == {5: 30.0}

    def test_horizon_truncates(self):
        idx = registered(2, [1])
        partition_of = {0: 0, 1: 1}.__getitem__
        idx.update_taxi_from_route(
            1, [0, 1], [10.0, 10.0 + HORIZON_S + 1.0], partition_of, now=10.0
        )
        assert listed(idx, 1) == {}
        idx.update_taxi_from_route(
            1, [0, 1], [10.0, 10.0 + HORIZON_S], partition_of, now=10.0
        )
        assert listed(idx, 1) == {1: 10.0 + HORIZON_S}

    def test_past_times_clamped_to_now(self):
        idx = registered(1, [1])
        idx.update_taxi_from_route(1, [0], [5.0], lambda v: 0, now=50.0)
        assert listed(idx, 0) == {1: 50.0}

    def test_total_entries_and_memory(self):
        idx = registered(3, [1, 2, 3])
        idx.update_taxi(1, {0: 1.0, 1: 2.0})
        idx.update_taxi(2, {2: 3.0})
        assert idx.total_entries() == 3
        assert idx.memory_bytes() == idx.arrivals.nbytes == 3 * 3 * 8


class TestArrivalColumns:
    def test_columns_are_every_arrival_map_at_once(self):
        idx = registered(3, [42, 7, 19, 8, 5])
        reference = ReferencePartitionIndex(3)
        assert idx.taxi_ids == [5, 7, 8, 19, 42]
        assert idx.column_of == {5: 0, 7: 1, 8: 2, 19: 3, 42: 4}
        assert idx.arrivals.shape == (3, 5) and idx.arrivals.dtype == np.float64
        assert np.isnan(idx.arrivals).all()
        for write, args in [
            ("update_taxi", (42, {0: 5.0, 2: 9.5})),
            ("update_taxi", (7, {2: 1.25})),
            ("update_taxi", (19, {1: 0.0})),
            ("update_taxi", (19, {0: 3.0})),  # replaced, not merged
            ("update_taxi", (8, {1: 2.0})),
            ("remove_taxi", (8,)),
        ]:
            getattr(idx, write)(*args)
            getattr(reference, write)(*args)
            assert [listed(idx, z) for z in range(3)] == [
                reference.arrival_map(z) for z in range(3)
            ]
        assert np.isnan(idx.arrivals[:, 0]).all()  # taxi 5: never indexed
        assert idx.arrivals[:, 3].tolist()[0] == 3.0 and np.isnan(idx.arrivals[1, 3])
