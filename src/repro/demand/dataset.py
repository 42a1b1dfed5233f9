"""Trip-dataset container and the statistics of the paper's Fig. 5.

A :class:`TripDataset` is a columnar store of historical taxi
transactions (the synthetic stand-in for the Didi GAIA trace).  It
supports time-window slicing — the paper carves the 8–9 a.m. workday
hour and the 10–11 a.m. weekend hour out of the trace — conversion to
ride-request workloads, and the descriptive statistics reported in
Fig. 5: hourly taxi-utilisation ratios and the trip travel-time
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.shortest_path import ShortestPathEngine
from .request import RideRequest


@dataclass(frozen=True)
class TripDataset:
    """Columnar historical trips: release time, origin, destination, taxi."""

    release_times: np.ndarray
    origins: np.ndarray
    destinations: np.ndarray
    taxi_ids: np.ndarray

    def __post_init__(self) -> None:
        m = self.release_times.shape[0]
        for name in ("origins", "destinations", "taxi_ids"):
            if getattr(self, name).shape != (m,):
                raise ValueError(f"{name} must have the same length as release_times")
        if m and np.any(np.diff(self.release_times) < 0):
            order = np.argsort(self.release_times, kind="stable")
            object.__setattr__(self, "release_times", self.release_times[order])
            object.__setattr__(self, "origins", self.origins[order])
            object.__setattr__(self, "destinations", self.destinations[order])
            object.__setattr__(self, "taxi_ids", self.taxi_ids[order])

    def __len__(self) -> int:
        return int(self.release_times.shape[0])

    # ------------------------------------------------------------------
    # slicing and views
    # ------------------------------------------------------------------
    def window(self, start_s: float, end_s: float) -> "TripDataset":
        """Trips with ``start_s <= release_time < end_s``."""
        mask = (self.release_times >= start_s) & (self.release_times < end_s)
        return TripDataset(
            release_times=self.release_times[mask],
            origins=self.origins[mask],
            destinations=self.destinations[mask],
            taxi_ids=self.taxi_ids[mask],
        )

    def exclude_window(self, start_s: float, end_s: float) -> "TripDataset":
        """Complement of :meth:`window`; the paper uses the *rest* of the
        trace for partitioning and probability mining."""
        mask = (self.release_times < start_s) | (self.release_times >= end_s)
        return TripDataset(
            release_times=self.release_times[mask],
            origins=self.origins[mask],
            destinations=self.destinations[mask],
            taxi_ids=self.taxi_ids[mask],
        )

    def od_pairs(self) -> np.ndarray:
        """``(m, 2)`` array of (origin, destination) for transition mining."""
        return np.stack([self.origins, self.destinations], axis=1)

    # ------------------------------------------------------------------
    # request workloads
    # ------------------------------------------------------------------
    def to_requests(
        self,
        engine: ShortestPathEngine,
        rho: float = 1.3,
        offline_count: int = 0,
        time_origin: float | None = None,
        seed: int = 0,
    ) -> list[RideRequest]:
        """Convert trips into a ride-request workload.

        Parameters
        ----------
        engine:
            Shortest-path engine used to fix ``cost(o, d)`` per request.
        rho:
            Flexible factor of Eq. 9 setting the delivery deadline.
        offline_count:
            Number of trips (sampled uniformly) marked as *offline*
            street-hailing requests, as in the paper's non-peak setup
            where 5,000 of 15,480 requests are hidden from the system.
        time_origin:
            Subtracted from release times so the workload starts near 0;
            defaults to the first trip's release time.
        seed:
            Seed for the offline sampling.

        Trips whose destination is unreachable from their origin are
        dropped (they cannot be served by any scheme).
        """
        m = len(self)
        if offline_count > m:
            raise ValueError("offline_count exceeds the number of trips")
        if time_origin is None:
            time_origin = float(self.release_times[0]) if m else 0.0
        rng = np.random.default_rng(seed)
        offline_ids = set(
            rng.choice(m, size=offline_count, replace=False).tolist()
        ) if offline_count else set()

        requests = []
        rid = 0
        for i in range(m):
            o = int(self.origins[i])
            d = int(self.destinations[i])
            cost = engine.cost(o, d)
            if not np.isfinite(cost) or cost <= 0.0:
                continue
            requests.append(
                RideRequest.from_flexible_factor(
                    request_id=rid,
                    release_time=float(self.release_times[i]) - time_origin,
                    origin=o,
                    destination=d,
                    direct_cost=float(cost),
                    rho=rho,
                    offline=i in offline_ids,
                )
            )
            rid += 1
        return requests

    # ------------------------------------------------------------------
    # Fig. 5 statistics
    # ------------------------------------------------------------------
    def travel_time_distribution(
        self,
        engine: ShortestPathEngine,
        percentiles: tuple[float, ...] = (50.0, 90.0),
    ) -> dict[float, float]:
        """Percentiles of shortest-path trip travel times, in seconds.

        Reproduces Fig. 5(b): the paper reports a 15-minute median and a
        30-minute 90th percentile for the GAIA trips.
        """
        times = []
        for o, d in zip(self.origins, self.destinations):
            c = engine.cost(int(o), int(d))
            if np.isfinite(c):
                times.append(c)
        if not times:
            return {p: float("nan") for p in percentiles}
        arr = np.asarray(times)
        return {p: float(np.percentile(arr, p)) for p in percentiles}

    def hourly_utilization(self, engine: ShortestPathEngine) -> dict[int, float]:
        """Average per-taxi busy-time share for each hour (Fig. 5(a)).

        A taxi's utilisation in an hour is the share of that hour it
        spends serving trips, approximating occupied time by each trip's
        shortest-path travel time clipped to the hour.
        """
        if not len(self):
            return {}
        taxis = np.unique(self.taxi_ids)
        busy: dict[int, float] = {}
        for i in range(len(self)):
            cost = engine.cost(int(self.origins[i]), int(self.destinations[i]))
            if not np.isfinite(cost):
                continue
            start = float(self.release_times[i])
            end = start + float(cost)
            h = int(start // 3600)
            while start < end:
                hour_end = (h + 1) * 3600.0
                busy[h] = busy.get(h, 0.0) + min(end, hour_end) - start
                start = hour_end
                h += 1
        denom = max(len(taxis), 1) * 3600.0
        return {h: min(1.0, b / denom) for h, b in sorted(busy.items())}
