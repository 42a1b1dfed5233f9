"""Indexing substrate: spatial grid and partition-based taxi indexes.

The mobility-cluster index lives with the rest of the paper's core
contribution in :mod:`repro.core.mobility_cluster`.
"""

from .partition_index import HORIZON_S, PartitionTaxiIndex
from .spatial import GridSpatialIndex, StaticVertexGrid

__all__ = ["HORIZON_S", "GridSpatialIndex", "PartitionTaxiIndex", "StaticVertexGrid"]
