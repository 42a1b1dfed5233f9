"""Road-network substrate: graphs, geometry, generators, routing engines."""

from .geo import cosine_similarity
from .generators import grid_city, ring_radial_city
from .graph import DEFAULT_SPEED_MPS, RoadNetwork, RoadNetworkError
from .landmarks import LandmarkGraph
from .shortest_path import (
    PathNotFound,
    ShortestPathEngine,
    dijkstra_restricted,
)

__all__ = [
    "DEFAULT_SPEED_MPS",
    "LandmarkGraph",
    "PathNotFound",
    "RoadNetwork",
    "RoadNetworkError",
    "ShortestPathEngine",
    "cosine_similarity",
    "dijkstra_restricted",
    "grid_city",
    "ring_radial_city",
]
