"""No-Sharing baseline: the regular taxi service (Section V-A2).

Each request is assigned to the geographically nearest *idle* taxi
within the searching range ``gamma``; the taxi serves the trip alone
along the shortest path and becomes available again after drop-off.
"""

from __future__ import annotations

from ..core.matching import MatchResult
from ..core.routing import RouteInfeasible
from ..demand.request import RideRequest
from ..fleet.schedule import dropoff, pickup
from ..fleet.taxi import Taxi
from ..index.spatial import GridSpatialIndex
from .base import DispatchScheme


class NoSharing(DispatchScheme):
    """Nearest-idle-taxi dispatch without ridesharing."""

    name = "No-Sharing"

    def __init__(self, network, engine, config) -> None:
        super().__init__(network, engine, config)
        self._idle_index = GridSpatialIndex(cell_size_m=max(200.0, config.search_range_m / 5))

    def _index_taxi(self, taxi: Taxi, now: float) -> None:
        if taxi.idle and not taxi.out_of_service:
            x, y = self._network.xy[taxi.loc]
            self._idle_index.insert(taxi.taxi_id, float(x), float(y))
        else:
            self._idle_index.remove(taxi.taxi_id)

    def on_taxi_breakdown(self, taxi: Taxi, now: float) -> None:
        """A broken taxi is no longer idle capacity: drop it from the grid."""
        self._idle_index.remove(taxi.taxi_id)

    def dispatch(self, request: RideRequest, now: float) -> MatchResult | None:
        """Assign the nearest idle taxi that can make the pick-up deadline."""
        gamma = self._config.search_range_m
        ox, oy = self._network.xy[request.origin]
        hits = self._idle_index.query_radius(float(ox), float(oy), gamma)
        stops = [pickup(request), dropoff(request)]
        for taxi_id, _dist in hits:
            taxi = self._fleet[taxi_id]
            if not taxi.idle:
                continue
            node, ready = taxi.position_at(now)
            if ready + self._engine.cost(node, request.origin) > request.pickup_deadline:
                continue
            try:
                route = self._fallback_router.route_for_schedule(node, ready, stops)
            except RouteInfeasible:
                continue
            return MatchResult(
                taxi_id=taxi_id,
                stops=tuple(stops),
                route=route,
                detour_cost=route.total_cost(),
                num_candidates=len(hits),
            )
        return None

    def try_offline(self, taxi: Taxi, request: RideRequest, now: float) -> MatchResult | None:
        """A regular taxi only stops for street hails when it is vacant."""
        if not taxi.idle:
            return None
        return self.generic_insertion(taxi, request, now, self._fallback_router)

    def index_memory_bytes(self) -> int:
        """Footprint of the idle-taxi grid."""
        return self._idle_index.memory_bytes()
