"""Tests for mobility vectors and the mobility-cluster index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mobility_cluster import (
    DEFAULT_LAMBDA,
    ZERO_UNIT,
    MobilityClusterIndex,
    MobilityVector,
    direction_unit,
    unit_similarity,
)


def vec(ox, oy, dx, dy):
    return MobilityVector(ox, oy, dx, dy)


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
        assert idx.matching_clusters(NORTHEAST) == [east]  # 45 degrees exactly
        assert idx.matching_clusters(NORTH) == []

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
        assert idx.matching_clusters(vec(0, 0, 50, 5)) == [east]

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            MobilityClusterIndex(lam=2.0)


class TestClusterIndexTaxis:
    def test_taxi_joins_best_cluster(self):
        idx = MobilityClusterIndex()
        east = idx.add_request(1, EAST)
        idx.add_request(2, WEST)
        assert idx.update_taxi(9, vec(0, 0, 80, 10)) == east
        assert idx.cluster_of_taxi(9) == east

    def test_unaligned_taxi_joins_nothing(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        assert idx.update_taxi(9, NORTH) is None
        assert idx.cluster_of_taxi(9) is None
        # but its direction is remembered for direct comparisons
        assert idx.taxi_unit(9) == direction_unit(*NORTH.direction)

    def test_empty_taxi_removed(self):
        idx = MobilityClusterIndex()
        east = idx.add_request(1, EAST)
        idx.update_taxi(9, EAST)
        idx.update_taxi(9, None)
        assert east in idx.cluster_ids() and idx.cluster_of_taxi(9) is None
        assert idx.taxi_unit(9) is None

    def test_taxi_reassigned_on_update(self):
        idx = MobilityClusterIndex()
        east = idx.add_request(1, EAST)
        west = idx.add_request(2, WEST)
        idx.update_taxi(9, EAST)
        idx.update_taxi(9, WEST)
        assert idx.cluster_of_taxi(9) == west != east

    def test_aligned_taxis_union(self):
        # Eq. 3's right side, probed per taxi as ``Matcher.candidate_taxis``
        # does: the taxi's cluster is one of the request's matching clusters.
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        idx.add_request(2, vec(0, 0, 90, 30))
        idx.update_taxi(7, EAST)
        idx.update_taxi(8, WEST)
        aligned = idx.matching_clusters(EAST)
        assert {t for t in (7, 8) if idx.cluster_of_taxi(t) in aligned} == {7}

    def test_cluster_death_unlinks_taxis(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        idx.update_taxi(9, EAST)
        idx.remove_request(1)
        assert idx.cluster_of_taxi(9) is None

    def test_memory(self):
        idx = MobilityClusterIndex()
        idx.add_request(1, EAST)
        idx.update_taxi(9, EAST)
        assert idx.memory_bytes() > 0


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


def scalar_alignment(idx, request_vec, taxi_id):
    """Rule 1's direction test the way ``candidate_taxis`` spells it."""
    if idx.cluster_of_taxi(taxi_id) in idx.matching_clusters(request_vec):
        return True
    unit = idx.taxi_unit(taxi_id)
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
        idx = MobilityClusterIndex(lam=lam)
        for rid, (dx, dy) in enumerate(clustered):
            idx.add_request(rid, vec(3.0, 4.0, 3.0 + dx, 4.0 + dy))
        for tid, direction in enumerate(taxis):
            idx.update_taxi(tid, None if direction is None else vec(1.0, 2.0, 1.0 + direction[0], 2.0 + direction[1]))
        taxi_ids = list(range(len(taxis))) + [99]  # 99: never seen
        request_vecs = [vec(5.0, 6.0, 5.0 + dx, 6.0 + dy) for dx, dy in requests]
        units = np.array([direction_unit(*v.direction) for v in request_vecs])
        mask = idx.alignment_mask(units, taxi_ids)
        assert mask.shape == (len(requests), len(taxi_ids)) and mask.dtype == bool
        for i, request_vec in enumerate(request_vecs):
            for j, tid in enumerate(taxi_ids):
                assert mask[i, j] == scalar_alignment(idx, request_vec, tid), (i, tid)

    def test_degenerate_and_missing_units(self):
        idx = MobilityClusterIndex()
        idx.update_taxi(1, vec(0, 0, 0, 0))  # ZERO_UNIT, no cluster to join
        idx.update_taxi(2, WEST)
        assert idx.taxi_unit(1) is ZERO_UNIT and idx.taxi_unit(3) is None
        units = np.array([direction_unit(100.0, 0.0), ZERO_UNIT])
        assert idx.alignment_mask(units, [1, 2, 3]).tolist() == [
            [True, False, False],  # east: the degenerate taxi aligns with everything
            [True, True, False],  # a degenerate request aligns with every taxi that has a vector
        ]
        assert idx.alignment_mask(units, []).shape == (2, 0)
