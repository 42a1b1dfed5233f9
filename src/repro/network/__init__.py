"""Road-network substrate: graphs, geometry, generators, routing engines."""

from .geo import (
    CHENGDU_LAT,
    CHENGDU_LNG,
    Point,
    bearing_deg,
    centroid,
    cosine_similarity,
    euclidean,
    haversine_m,
    latlng_to_xy,
    xy_to_latlng,
)
from .generators import grid_city, ring_radial_city, small_test_network
from .graph import DEFAULT_SPEED_MPS, RoadNetwork, RoadNetworkError
from .landmarks import LandmarkGraph
from .shortest_path import (
    PathNotFound,
    ShortestPathEngine,
    dijkstra_restricted,
)

__all__ = [
    "CHENGDU_LAT",
    "CHENGDU_LNG",
    "DEFAULT_SPEED_MPS",
    "LandmarkGraph",
    "PathNotFound",
    "Point",
    "RoadNetwork",
    "RoadNetworkError",
    "ShortestPathEngine",
    "bearing_deg",
    "centroid",
    "cosine_similarity",
    "dijkstra_restricted",
    "euclidean",
    "grid_city",
    "haversine_m",
    "latlng_to_xy",
    "ring_radial_city",
    "small_test_network",
    "xy_to_latlng",
]
