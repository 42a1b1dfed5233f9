"""Uniform-grid spatial indexes: moving objects and static vertices.

T-Share, pGreedyDP and the No-Sharing baseline all index taxis by the
grid cell of their current location and answer "taxis within range
``gamma`` of a point" queries (:class:`GridSpatialIndex`).  The index
stores planar positions and filters candidates by exact Euclidean
distance after the coarse cell scan, so results are exact.

:class:`StaticVertexGrid` is the immutable counterpart over *network
vertices*: buckets are numpy arrays built once with a lexsort, and a
radius query touches only the O(1) cells its disc's bounding box
covers instead of scanning every vertex.  The simulator uses it to
register offline requests (``Simulator._register_offline``).
"""

from __future__ import annotations

import math

import numpy as np


#: Factor on the radius of :meth:`GridSpatialIndex.query_radius`'s
#: query box.  The offsets and ``math.hypot`` each round by at most a
#: unit in the last place, so a point admitted at distance ``r`` lies
#: within ``r * (1 + 1.5 * 2**-52)`` on each axis; 1e-15 is about
#: ``4.5 * 2**-52``.
HYPOT_SLACK = 1.0 + 1e-15


class GridSpatialIndex:
    """Point index with O(1) updates and grid-pruned radius queries.

    Parameters
    ----------
    cell_size_m:
        Grid cell edge length.  Radius queries scan the cells the
        query disc's bounding box touches.
    """

    def __init__(self, cell_size_m: float = 500.0) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell size must be positive")
        self._cell = float(cell_size_m)
        self._cells: dict[tuple[int, int], set[int]] = {}
        self._positions: dict[int, tuple[float, float]] = {}

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._cell), math.floor(y / self._cell))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._positions

    def insert(self, obj_id: int, x: float, y: float) -> None:
        """Insert or move an object to ``(x, y)``."""
        if obj_id in self._positions:
            self.remove(obj_id)
        key = self._cell_of(x, y)
        self._cells.setdefault(key, set()).add(obj_id)
        self._positions[obj_id] = (x, y)

    def remove(self, obj_id: int) -> None:
        """Remove an object; missing ids are ignored."""
        pos = self._positions.pop(obj_id, None)
        if pos is None:
            return
        key = self._cell_of(*pos)
        bucket = self._cells.get(key)
        if bucket is not None:
            bucket.discard(obj_id)
            if not bucket:
                del self._cells[key]

    def query_radius(self, x: float, y: float, radius_m: float) -> list[tuple[int, float]]:
        """Objects within ``radius_m`` of ``(x, y)`` with exact distances.

        Returns ``(obj_id, distance)`` pairs sorted by distance.
        """
        if radius_m < 0:
            return []
        # A point whose offset exceeds the radius by a rounding error
        # can still have ``hypot(...) <= radius_m``; the box reaches
        # far enough past the disc to hold it (``_cell_of`` rounds
        # monotonically, so a wider box never loses a cell).
        reach = radius_m * HYPOT_SLACK
        x0, y0 = self._cell_of(x - reach, y - reach)
        x1, y1 = self._cell_of(x + reach, y + reach)
        hits: list[tuple[int, float]] = []
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                bucket = self._cells.get((gx, gy))
                if not bucket:
                    continue
                for obj_id in bucket:
                    px, py = self._positions[obj_id]
                    # hypot, not squared distances: squares of denormal
                    # offsets underflow to zero and misclassify points.
                    d = math.hypot(px - x, py - y)
                    if d <= radius_m:
                        hits.append((obj_id, d))
        hits.sort(key=lambda h: (h[1], h[0]))
        return hits

    def query_radius_cells(self, x: float, y: float, radius_m: float) -> list[tuple[int, float]]:
        """Objects in cells whose *centre* lies within ``radius_m``.

        This is how the grid-based indexes of T-Share and pGreedyDP
        answer range queries: the searched area is a set of whole grid
        cells, so objects near the far edge of an excluded cell are
        missed even when their exact distance is within range (the
        "partial trip information" limitation the mT-Share paper's
        Fig. 1 illustrates with taxi t3).  Distances returned are to
        the cell centre, which is all the grid knows.
        """
        if radius_m < 0:
            return []
        span = math.ceil(radius_m / self._cell) + 1
        cx, cy = self._cell_of(x, y)
        hits: list[tuple[int, float]] = []
        for gx in range(cx - span, cx + span + 1):
            for gy in range(cy - span, cy + span + 1):
                bucket = self._cells.get((gx, gy))
                if not bucket:
                    continue
                center_x = (gx + 0.5) * self._cell
                center_y = (gy + 0.5) * self._cell
                d = math.hypot(center_x - x, center_y - y)
                if d <= radius_m:
                    hits.extend((obj_id, d) for obj_id in bucket)
        hits.sort(key=lambda h: (h[1], h[0]))
        return hits

    def memory_bytes(self) -> int:
        """Rough footprint: cells plus position table."""
        return 96 * len(self._cells) + 72 * len(self._positions)


#: Metres the query box of :meth:`StaticVertexGrid.query_radius` reaches
#: past the disc.  A coordinate difference below about 1.5e-154 squares
#: to zero or a subnormal, so the exact predicate admits such a point
#: even at radius 0, and near the cell boundary at 0 it can sit in a
#: cell the disc's own box does not touch.  Away from 0 the pad rounds
#: away, as it may: two distinct floats there differ by far more.
UNDERFLOW_PAD_M = 1e-150


class StaticVertexGrid:
    """Immutable uniform-cell index over a fixed vertex point set.

    Built once from the network's ``xy`` array; each cell's bucket is a
    sorted numpy array of vertex ids.  :meth:`query_radius` gathers the
    buckets of the cells the query disc's bounding box touches and
    applies the exact squared-distance predicate ``d2 <= r**2`` over
    the candidates — the same predicate (and the same float arithmetic)
    as a full-array scan, so results are identical to one, in ascending
    vertex-id order, at O(cell) cost.

    Parameters
    ----------
    xy:
        ``(V, 2)`` array of planar vertex coordinates.
    cell_size_m:
        Grid cell edge length; pick it near the typical query radius so
        a query touches a 3x3 ring.
    """

    __slots__ = ("_xy", "_cell", "_buckets")

    def __init__(self, xy: np.ndarray, cell_size_m: float = 250.0) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell size must be positive")
        self._xy = np.asarray(xy, dtype=float)
        self._cell = float(cell_size_m)
        gx = np.floor(self._xy[:, 0] / self._cell).astype(np.int64)
        gy = np.floor(self._xy[:, 1] / self._cell).astype(np.int64)
        order = np.lexsort((gy, gx))
        sx, sy = gx[order], gy[order]
        if order.size:
            change = np.flatnonzero((np.diff(sx) != 0) | (np.diff(sy) != 0)) + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [order.size]))
        else:
            starts = ends = np.empty(0, dtype=np.int64)
        # lexsort is stable, so each slice of ``order`` is already in
        # ascending vertex-id order.
        self._buckets: dict[tuple[int, int], np.ndarray] = {
            (int(sx[s]), int(sy[s])): order[s:e] for s, e in zip(starts, ends)
        }

    def __len__(self) -> int:
        return int(self._xy.shape[0])

    def query_radius(self, x: float, y: float, radius_m: float) -> np.ndarray:
        """Vertex ids within ``radius_m`` of ``(x, y)``, ascending.

        Bit-identical to ``(d2 <= radius_m**2).nonzero()[0]`` over the
        full coordinate array.
        """
        if radius_m < 0:
            return np.empty(0, dtype=np.int64)
        cell = self._cell
        reach = radius_m + UNDERFLOW_PAD_M
        x0, x1 = math.floor((x - reach) / cell), math.floor((x + reach) / cell)
        y0, y1 = math.floor((y - reach) / cell), math.floor((y + reach) / cell)
        buckets = [
            b
            for gx in range(x0, x1 + 1)
            for gy in range(y0, y1 + 1)
            if (b := self._buckets.get((gx, gy))) is not None
        ]
        if not buckets:
            return np.empty(0, dtype=np.int64)
        cand = np.concatenate(buckets)
        pts = self._xy[cand]
        d2 = (pts[:, 0] - float(x)) ** 2 + (pts[:, 1] - float(y)) ** 2
        return np.sort(cand[d2 <= radius_m**2])

    def memory_bytes(self) -> int:
        """Rough footprint: bucket table plus id arrays."""
        return 96 * len(self._buckets) + 8 * int(self._xy.shape[0])
