"""Map-partitioning substrate: k-means, transition mining, partition strategies."""

from .bipartite import (
    DEFAULT_TRANSITION_CLUSTERS,
    MapPartitioning,
    bipartite_partition,
    geo_partition,
)
from .grid import grid_labels, grid_partition
from .kmeans import KMeansResult, kmeans
from .transition import TransitionModel

__all__ = [
    "DEFAULT_TRANSITION_CLUSTERS",
    "KMeansResult",
    "MapPartitioning",
    "TransitionModel",
    "bipartite_partition",
    "geo_partition",
    "grid_labels",
    "grid_partition",
    "kmeans",
]
