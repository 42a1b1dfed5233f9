"""Tests for mobility vectors and the mobility-cluster index."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.mobility_cluster import (
    DEFAULT_LAMBDA,
    ZERO_UNIT,
    MobilityClusterIndex,
    MobilityVector,
    direction_unit,
    misaligned_keys,
    unit_similarity,
)
from tests.oracles import taxi_cells


def vec(ox, oy, dx, dy):
    return MobilityVector(ox, oy, dx, dy)


def registered(taxi_ids=(9,), lam=DEFAULT_LAMBDA):
    """A fresh index with cells for ``taxi_ids``, in that order."""
    idx = MobilityClusterIndex(lam=lam)
    idx.register({tid: k for k, tid in enumerate(taxi_ids)})
    return idx


def cluster_of(idx, taxi_id):
    return taxi_cells(idx, taxi_id)[0]


def unit_of(idx, taxi_id):
    return taxi_cells(idx, taxi_id)[1]


EAST = vec(0, 0, 100, 0)
WEST = vec(0, 0, -100, 0)
NORTH = vec(0, 0, 0, 100)
NORTHEAST = vec(0, 0, 100, 100)


class TestMobilityVector:
    def test_direction(self):
        assert vec(10, 20, 30, 50).direction == (20, 30)

    def test_similarity_identical(self):
        assert EAST.similarity(vec(5, 5, 105, 5)) == pytest.approx(1.0)

    def test_similarity_opposite(self):
        assert EAST.similarity(WEST) == pytest.approx(-1.0)

    def test_similarity_orthogonal(self):
        assert EAST.similarity(NORTH) == pytest.approx(0.0)

    def test_is_aligned_threshold(self):
        idx = MobilityClusterIndex(lam=0.707)
        east = idx.add_request(1, EAST)
        assert idx.matching_clusters(direction_unit(*NORTHEAST.direction)) == [east]  # 45 degrees exactly
        assert idx.matching_clusters(direction_unit(*NORTH.direction)) == []

    def test_default_lambda_is_cos45(self):
        assert DEFAULT_LAMBDA == pytest.approx(math.cos(math.radians(45)), abs=1e-3)


class TestClusterIndexRequests:
    def test_first_request_founds_cluster(self):
        idx = MobilityClusterIndex()
        cid = idx.add_request(1, EAST)
        assert idx.num_clusters == 1
        assert idx.cluster_of_request(1) == cid
        assert idx.cluster_ids() == [cid]

    def test_aligned_request_joins(self):
        idx = MobilityClusterIndex()
        cid = idx.add_request(1, EAST)
        cid2 = idx.add_request(2, vec(10, 0, 110, 10))
        assert cid2 == cid == idx.cluster_of_request(1)
        assert idx.num_clusters == 1

    def test_misaligned_request_founds_new(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        idx.add_request(2, WEST)
        assert idx.num_clusters == 2

    def test_general_vector_is_mean(self):
        idx = MobilityClusterIndex()
        cid = idx.add_request(1, vec(0, 0, 100, 0))
        idx.add_request(2, vec(20, 0, 120, 40))
        gv = idx._clusters[cid].general_vector()
        assert gv.ox == pytest.approx(10.0)
        assert gv.dx == pytest.approx(110.0)
        assert gv.dy == pytest.approx(20.0)

    def test_duplicate_request_rejected(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        with pytest.raises(ValueError):
            idx.add_request(1, EAST)

    def test_remove_deletes_empty_cluster(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        idx.remove_request(1)
        assert idx.num_clusters == 0
        assert idx.cluster_of_request(1) is None
        idx.remove_request(1)  # idempotent

    def test_remove_keeps_nonempty_cluster(self):
        idx = MobilityClusterIndex()
        cid = idx.add_request(1, EAST)
        idx.add_request(2, EAST)
        idx.remove_request(1)
        assert idx.cluster_ids() == [cid] == [idx.cluster_of_request(2)]
        assert idx._clusters[cid].general_vector() == EAST

    def test_matching_clusters(self):
        idx = MobilityClusterIndex()
        east = idx.add_request(1, EAST)
        idx.add_request(2, WEST)
        assert idx.matching_clusters(direction_unit(50, 5)) == [east]

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            MobilityClusterIndex(lam=2.0)


class TestClusterIndexTaxis:
    def test_taxi_joins_best_cluster(self):
        idx = registered()
        east = idx.add_request(1, EAST)
        idx.add_request(2, WEST)
        assert idx.update_taxi(9, vec(0, 0, 80, 10)) == east
        assert cluster_of(idx, 9) == east

    def test_unaligned_taxi_joins_nothing(self):
        idx = registered()
        idx.add_request(1, EAST)
        assert idx.update_taxi(9, NORTH) is None
        assert cluster_of(idx, 9) is None
        # but its direction is remembered for direct comparisons
        assert unit_of(idx, 9) == direction_unit(*NORTH.direction)

    def test_empty_taxi_removed(self):
        idx = registered()
        east = idx.add_request(1, EAST)
        idx.update_taxi(9, EAST)
        idx.update_taxi(9, None)
        assert east in idx.cluster_ids() and cluster_of(idx, 9) is None
        assert unit_of(idx, 9) is None

    def test_taxi_reassigned_on_update(self):
        idx = registered()
        east = idx.add_request(1, EAST)
        west = idx.add_request(2, WEST)
        idx.update_taxi(9, EAST)
        idx.update_taxi(9, WEST)
        assert cluster_of(idx, 9) == west != east

    def test_aligned_taxis_union(self):
        # Eq. 3's right side, probed per taxi as ``Matcher.candidate_taxis``
        # does: the taxi's cluster is one of the request's matching clusters.
        idx = registered((7, 8))
        idx.add_request(1, EAST)
        idx.add_request(2, vec(0, 0, 90, 30))
        idx.update_taxi(7, EAST)
        idx.update_taxi(8, WEST)
        aligned = idx.matching_clusters(direction_unit(*EAST.direction))
        assert {t for t in (7, 8) if cluster_of(idx, t) in aligned} == {7}

    def test_cluster_death_unlinks_taxis(self):
        idx = registered((3, 9))
        idx.add_request(1, EAST)
        idx.add_request(2, WEST)
        idx.update_taxi(9, EAST)
        idx.update_taxi(3, WEST)
        idx.remove_request(1)
        assert cluster_of(idx, 9) is None and cluster_of(idx, 3) is not None
        assert unit_of(idx, 9) == direction_unit(*EAST.direction)

    def test_unregistered_taxi_is_rejected(self):
        with pytest.raises(KeyError):
            registered().update_taxi(4, EAST)

    def test_memory(self):
        idx = registered()
        empty = idx.memory_bytes()
        assert empty == idx.cluster.nbytes + idx.unit.nbytes == 32
        idx.add_request(1, EAST)
        idx.update_taxi(9, EAST)
        assert idx.memory_bytes() > empty


class TestClusterProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    ), min_size=1, max_size=25))
    def test_every_request_in_exactly_one_cluster(self, directions):
        idx = MobilityClusterIndex()
        for i, (dx, dy) in enumerate(directions):
            idx.add_request(i, vec(0, 0, dx, dy))
        # Every request sits in a live cluster, and no live cluster is empty.
        held = {idx.cluster_of_request(i) for i in range(len(directions))}
        assert held == set(idx.cluster_ids())


def column_mask(idx, units, taxi_ids):
    """``alignment_mask`` over the cells of ``taxi_ids``."""
    columns = [idx.column_of[tid] for tid in taxi_ids]
    return idx.alignment_mask(units, idx.cluster[columns], idx.unit[columns])


def scalar_alignment(idx, request_vec, taxi_id):
    """Rule 1's direction test the way ``candidate_taxis`` spells it."""
    cluster, unit = taxi_cells(idx, taxi_id)
    if cluster in idx.matching_clusters(direction_unit(*request_vec.direction)):
        return True
    if unit is None:
        return False
    return unit_similarity(unit, direction_unit(*request_vec.direction)) >= idx.lam


class TestAlignmentMask:
    coords = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 100.0]), st.floats(min_value=-500, max_value=500)
    )
    directions = st.tuples(coords, coords)

    @settings(max_examples=60, deadline=None)
    @given(
        clustered=st.lists(directions, max_size=8),
        taxis=st.lists(st.one_of(st.none(), directions), max_size=8),
        requests=st.lists(directions, min_size=1, max_size=8),
        lam=st.sampled_from([DEFAULT_LAMBDA, -1.0, 0.0, 1.0]),
    )
    def test_mask_is_the_scalar_test_pair_by_pair(self, clustered, taxis, requests, lam):
        taxi_ids = list(range(len(taxis))) + [99]  # 99: never seen
        idx = registered(taxi_ids, lam=lam)
        for rid, (dx, dy) in enumerate(clustered):
            idx.add_request(rid, vec(3.0, 4.0, 3.0 + dx, 4.0 + dy))
        for tid, direction in enumerate(taxis):
            idx.update_taxi(tid, None if direction is None else vec(1.0, 2.0, 1.0 + direction[0], 2.0 + direction[1]))
        # Dissolve one clustered request's cluster after the taxis joined.
        if clustered:
            idx.remove_request(0)
        request_vecs = [vec(5.0, 6.0, 5.0 + dx, 6.0 + dy) for dx, dy in requests]
        units = np.array([direction_unit(*v.direction) for v in request_vecs])
        mask = column_mask(idx, units, taxi_ids)
        assert mask.shape == (len(requests), len(taxi_ids)) and mask.dtype == bool
        for i, request_vec in enumerate(request_vecs):
            for j, tid in enumerate(taxi_ids):
                assert mask[i, j] == scalar_alignment(idx, request_vec, tid), (i, tid)

    @settings(max_examples=80, deadline=None)
    @given(
        taxis=st.lists(st.one_of(st.none(), directions), max_size=12),
        request=directions,
        lam=st.one_of(
            st.sampled_from([DEFAULT_LAMBDA, -1.0, 0.0, 1.0]),
            st.floats(min_value=-1.0, max_value=1.0),
        ),
    )
    # Opposite directions whose cosine rounds to -1.0000000000000002:
    # only the clamp keeps it from failing lambda = -1.
    @example(
        taxis=[(-471.65252347799367, 335.7651039198697)],
        request=(2067.910480938147, -1472.1264977215387),
        lam=-1.0,
    )
    def test_misaligned_keys_is_the_clamped_scalar_test(self, taxis, request, lam):
        """Greedy search's Rule 1 over gathered rows: a NaN row, or
        ``unit_similarity`` (clamp included) below ``lam``."""
        units = [
            [math.nan] * 3 if direction is None else list(direction_unit(*direction))
            for direction in taxis
        ]
        req_unit = direction_unit(*request)
        keys = [10 + k for k in range(len(units))]
        want = [
            key
            for key, direction in zip(keys, taxis)
            if direction is None
            or unit_similarity(direction_unit(*direction), req_unit) < lam
        ]
        assert misaligned_keys(keys, units, req_unit, lam) == want

    def test_degenerate_and_missing_units(self):
        idx = registered([1, 2, 3])
        idx.update_taxi(1, vec(0, 0, 0, 0))  # ZERO_UNIT, no cluster to join
        idx.update_taxi(2, WEST)
        assert idx.unit[0].tolist() == [0.0, 0.0, 0.0] and np.isnan(idx.unit[2]).all()
        units = np.array([direction_unit(100.0, 0.0), ZERO_UNIT])
        assert column_mask(idx, units, [1, 2, 3]).tolist() == [
            [True, False, False],  # east: the degenerate taxi aligns with everything
            [True, True, False],  # a degenerate request aligns with every taxi that has a vector
        ]
        assert column_mask(idx, units, []).shape == (2, 0)
