"""GAIA-format trace I/O and map matching.

The paper's data is the Didi GAIA Chengdu ride-request trace: CSV rows
of ``order_id, taxi_id, start_time, pickup_lng, pickup_lat,
dropoff_lng, dropoff_lat``.  This module reads/writes that format so
the pipeline can run on the real trace when it is available, and on
export of our synthetic traces otherwise.  Coordinates are snapped to
road-network vertices with a KD-tree map matcher.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from ..demand.dataset import TripDataset
from ..network.geo import latlng_to_xy, xy_to_latlng
from ..network.graph import RoadNetwork

#: Column order of a GAIA-format CSV.
GAIA_COLUMNS = (
    "order_id",
    "taxi_id",
    "start_time",
    "pickup_lng",
    "pickup_lat",
    "dropoff_lng",
    "dropoff_lat",
)

#: Default snap tolerance: points farther than this from every vertex
#: are considered outside the study area and dropped.
DEFAULT_SNAP_RADIUS_M = 500.0


class TraceFormatError(ValueError):
    """Raised when a trace file does not follow the GAIA format."""


class MapMatcher:
    """Snap planar or lat/lng points to the nearest road vertex.

    Parameters
    ----------
    network:
        Road network whose vertices are the snap targets.
    snap_radius_m:
        Points farther than this from every vertex do not match.
    """

    def __init__(self, network: RoadNetwork, snap_radius_m: float = DEFAULT_SNAP_RADIUS_M) -> None:
        if snap_radius_m <= 0:
            raise ValueError("snap radius must be positive")
        self._network = network
        self._radius = float(snap_radius_m)
        self._tree = cKDTree(np.asarray(network.xy))

    @property
    def snap_radius_m(self) -> float:
        """The snap tolerance in metres."""
        return self._radius

    def match_xy(self, x: float, y: float) -> int | None:
        """Nearest vertex to a planar point, or ``None`` if out of range."""
        dist, idx = self._tree.query([x, y])
        if dist > self._radius:
            return None
        return int(idx)

    def match_latlng(self, lat: float, lng: float) -> int | None:
        """Nearest vertex to a lat/lng point, or ``None`` if out of range."""
        p = latlng_to_xy(lat, lng)
        return self.match_xy(p.x, p.y)


def write_gaia_csv(path: str | Path, dataset: TripDataset, network: RoadNetwork) -> int:
    """Export a trip dataset as a GAIA-format CSV.

    Vertex ids are converted back to lat/lng through the network's
    planar projection.  Returns the number of rows written.
    """
    path = Path(path)
    xy = np.asarray(network.xy)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(GAIA_COLUMNS)
        for i in range(len(dataset)):
            o = int(dataset.origins[i])
            d = int(dataset.destinations[i])
            olat, olng = xy_to_latlng(float(xy[o, 0]), float(xy[o, 1]))
            dlat, dlng = xy_to_latlng(float(xy[d, 0]), float(xy[d, 1]))
            writer.writerow(
                [
                    i,
                    int(dataset.taxi_ids[i]),
                    f"{float(dataset.release_times[i]):.1f}",
                    f"{olng:.7f}",
                    f"{olat:.7f}",
                    f"{dlng:.7f}",
                    f"{dlat:.7f}",
                ]
            )
    return len(dataset)


def read_gaia_csv(
    path: str | Path,
    network: RoadNetwork,
    snap_radius_m: float = DEFAULT_SNAP_RADIUS_M,
) -> TripDataset:
    """Load a GAIA-format CSV and map-match it onto a road network.

    Rows whose pick-up or drop-off lies farther than ``snap_radius_m``
    from every network vertex are dropped (the paper restricts the
    trace to the 2nd Ring Road the same way), as are rows that snap
    onto identical origin and destination vertices.
    """
    path = Path(path)
    matcher = MapMatcher(network, snap_radius_m)

    times: list[float] = []
    origins: list[int] = []
    destinations: list[int] = []
    taxis: list[int] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(GAIA_COLUMNS):
            raise TraceFormatError(
                f"expected header {','.join(GAIA_COLUMNS)!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(GAIA_COLUMNS):
                raise TraceFormatError(f"line {lineno}: expected {len(GAIA_COLUMNS)} fields")
            try:
                taxi_id = int(row[1])
                start = float(row[2])
                plng, plat = float(row[3]), float(row[4])
                dlng, dlat = float(row[5]), float(row[6])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            origin = matcher.match_latlng(plat, plng)
            destination = matcher.match_latlng(dlat, dlng)
            if origin is None or destination is None or origin == destination:
                continue
            times.append(start)
            origins.append(origin)
            destinations.append(destination)
            taxis.append(taxi_id)

    return TripDataset(
        release_times=np.asarray(times, dtype=np.float64),
        origins=np.asarray(origins, dtype=np.int64),
        destinations=np.asarray(destinations, dtype=np.int64),
        taxi_ids=np.asarray(taxis, dtype=np.int64),
    )
