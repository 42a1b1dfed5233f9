"""Uniform-grid map partitioning (the strategy of T-Share and pGreedyDP).

Previous schemes index taxis and requests with a regular grid laid over
the road network.  This module provides that partitioning both as the
substrate of the baseline schemes and as the "Grid" row of Table V,
where the paper compares it against bipartite map partitioning.
"""

from __future__ import annotations

import math

import numpy as np

from ..network.graph import RoadNetwork
from .bipartite import MapPartitioning, _relabel_contiguous
from .transition import TransitionModel


def grid_labels(
    xy: np.ndarray,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Raw grid-cell label (``row * cols + col``) for each point.

    Cells are laid over the bounding box of ``xy``; points on the upper
    boundary fall into the last row/column.
    """
    xy = np.asarray(xy, dtype=np.float64)
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    x0, y0 = xy.min(axis=0)
    x1, y1 = xy.max(axis=0)
    width = max(x1 - x0, 1e-9)
    height = max(y1 - y0, 1e-9)
    col = np.minimum((cols * (xy[:, 0] - x0) / width).astype(np.int64), cols - 1)
    row = np.minimum((rows * (xy[:, 1] - y0) / height).astype(np.int64), rows - 1)
    return row * cols + col


def grid_partition(
    network: RoadNetwork,
    num_partitions: int,
    historical_trips: np.ndarray | None = None,
) -> MapPartitioning:
    """Partition the network with a square grid of about ``num_partitions`` cells.

    The grid dimension is ``ceil(sqrt(num_partitions))`` per side; empty
    cells are dropped and the remaining cells re-labelled contiguously,
    so the actual partition count is the number of *occupied* cells.
    A transition model is fitted against the grid cells when historical
    trips are supplied, so grid-partitioned mT-Share variants can still
    run probabilistic routing (needed for the Table V comparison in the
    non-peak scenario).
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    side = max(1, math.ceil(math.sqrt(num_partitions)))
    raw = grid_labels(np.asarray(network.xy), side, side)
    labels = _relabel_contiguous(raw)
    model = None
    if historical_trips is not None:
        model = TransitionModel.fit(
            np.asarray(historical_trips, dtype=np.int64),
            labels,
            int(labels.max()) + 1,
        )
    return MapPartitioning(labels=labels, method="grid", transition_model=model)
