"""Tests for the grid spatial index."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.index.spatial import GridSpatialIndex, StaticVertexGrid

coord = st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False)


class TestBasics:
    def test_insert_and_len(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 0.0, 0.0)
        idx.insert(2, 50.0, 50.0)
        assert len(idx) == 2
        assert 1 in idx
        assert 3 not in idx

    def test_update_moves(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 0.0, 0.0)
        idx.insert(1, 1000.0, 1000.0)
        assert len(idx) == 1
        assert idx.query_radius(1000.0, 1000.0, 1.0) == [(1, 0.0)]
        assert idx.query_radius(0.0, 0.0, 10.0) == []

    def test_remove(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 0.0, 0.0)
        idx.remove(1)
        assert len(idx) == 0
        idx.remove(99)  # silently ignored

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridSpatialIndex(0.0)

    def test_memory(self):
        idx = GridSpatialIndex(50.0)
        idx.insert(0, 0.0, 0.0)
        assert idx.memory_bytes() > 0


class TestQueryRadius:
    def test_exact_distances_sorted(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 30.0, 40.0)   # 50 m away
        idx.insert(2, 300.0, 0.0)   # 300 m
        idx.insert(3, 60.0, 80.0)   # 100 m
        hits = idx.query_radius(0.0, 0.0, 150.0)
        assert [h[0] for h in hits] == [1, 3]
        assert hits[0][1] == pytest.approx(50.0)

    def test_radius_zero(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 0.0, 0.0)
        assert [h[0] for h in idx.query_radius(0.0, 0.0, 0.0)] == [1]

    def test_negative_radius(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 0.0, 0.0)
        assert idx.query_radius(0.0, 0.0, -1.0) == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=30),
        coord,
        coord,
        st.floats(min_value=0.0, max_value=3000.0),
    )
    # A point exactly r away in the cell past the query's own ring.
    @example(points=[(250.0, 0.0)], qx=-9.5e-25, qy=0.0, r=250.0)
    @example(points=[(0.0, -3.3386046536530176e-245)], qx=0.0, qy=0.0, r=0.0)
    # A point just past the box edge whose distance rounds down to r.
    @example(points=[(0.0, -3.911602217588199e-189)], qx=0.0, qy=1.0, r=1.0)
    def test_matches_brute_force(self, points, qx, qy, r):
        idx = GridSpatialIndex(250.0)
        for i, (x, y) in enumerate(points):
            idx.insert(i, x, y)
        expected = sorted(
            i for i, (x, y) in enumerate(points) if math.hypot(x - qx, y - qy) <= r
        )
        got = sorted(h[0] for h in idx.query_radius(qx, qy, r))
        assert got == expected


class TestStaticVertexGrid:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(coord, coord), min_size=0, max_size=30),
        coord,
        coord,
        st.floats(min_value=0.0, max_value=3000.0),
    )
    @example(points=[(250.0, 0.0)], qx=-9.5e-25, qy=0.0, r=250.0)
    @example(points=[(0.0, -3.3386046536530176e-245)], qx=0.0, qy=0.0, r=0.0)
    def test_matches_full_scan(self, points, qx, qy, r):
        xy = np.array(points, dtype=float).reshape(-1, 2)
        grid = StaticVertexGrid(xy, 250.0)
        d2 = (xy[:, 0] - qx) ** 2 + (xy[:, 1] - qy) ** 2
        assert grid.query_radius(qx, qy, r).tolist() == (d2 <= r**2).nonzero()[0].tolist()


class TestQueryRadiusCells:
    def test_cell_granularity_misses_far_edge(self):
        # Cell size 100: object at (199, 0) lives in cell [100, 200) whose
        # centre is (150, 50).  Query at origin with r=150: centre
        # distance ~158 > 150, so the object is missed even though its
        # exact distance is ~199... wait both are > 150.  Use r=160:
        # exact distance 199 > 160 but centre 158 < 160 -> false positive.
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 199.0, 0.0)
        exact = idx.query_radius(0.0, 0.0, 160.0)
        cells = idx.query_radius_cells(0.0, 0.0, 160.0)
        assert exact == []           # exact distance is 199
        assert [h[0] for h in cells] == [1]  # grid sees the whole cell

    def test_cell_granularity_false_negative(self):
        # Object at (210, 0): cell [200, 300), centre (250, 50), centre
        # distance ~255.  Query r=230 covers the object's true distance
        # (210) but not its cell centre -> missed by the grid.
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 210.0, 0.0)
        assert [h[0] for h in idx.query_radius(0.0, 0.0, 230.0)] == [1]
        assert idx.query_radius_cells(0.0, 0.0, 230.0) == []

    def test_distances_are_cell_centre_based(self):
        idx = GridSpatialIndex(100.0)
        idx.insert(1, 10.0, 10.0)
        hits = idx.query_radius_cells(50.0, 50.0, 100.0)
        assert hits[0][1] == pytest.approx(0.0)  # query sits on the centre
