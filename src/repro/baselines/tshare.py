"""T-Share baseline (Ma, Zheng, Wolfson — ICDE'13 / TKDE'15).

T-Share indexes taxis with a uniform spatial grid and serves a request
through a *dual-side* search: candidate taxis must be able to reach the
request's origin before the pick-up deadline (origin side, range
``gamma``) *and* be positioned to reach the destination before the
delivery deadline (destination side).  Crucially, T-Share returns the
**first** candidate whose schedule admits a feasible insertion — not
the best one — scanning candidates from nearest to farthest.  The
paper's Table III traces its small candidate sets (and hence its missed
matches) to exactly this intersection.
"""

from __future__ import annotations

from ..core.matching import MatchResult
from ..core.routing import RouteInfeasible
from ..demand.request import RideRequest
from ..fleet.schedule import arrival_times, capacity_ok, deadlines_met, enumerate_insertions
from ..fleet.taxi import Taxi
from ..index.spatial import GridSpatialIndex
from .base import DispatchScheme


class TShare(DispatchScheme):
    """Grid-indexed dual-side search with first-valid selection."""

    name = "T-Share"

    def __init__(self, network, engine, config) -> None:
        super().__init__(network, engine, config)
        self._position_index = GridSpatialIndex(cell_size_m=config.search_range_m / 2.0)
        #: How many nearest candidates are examined before giving up;
        #: T-Share stops at the first feasible one anyway.
        self.max_examined = 64
        self.last_candidate_count = 0

    # ------------------------------------------------------------------
    def _index_taxi(self, taxi: Taxi, now: float) -> None:
        x, y = self._network.xy[taxi.loc]
        self._position_index.insert(taxi.taxi_id, float(x), float(y))

    def on_taxi_advanced(self, taxi: Taxi, now: float, stops_fired: bool) -> None:
        """Track current positions continuously: the grid index is a
        position index, unlike mT-Share's route-based partition lists."""
        self._index_taxi(taxi, now)

    def on_taxi_breakdown(self, taxi: Taxi, now: float) -> None:
        """Evict the broken taxi from the position grid."""
        self._position_index.remove(taxi.taxi_id)

    # ------------------------------------------------------------------
    def _dual_side_candidates(self, request: RideRequest, now: float) -> list[Taxi]:
        """Origin-side disc intersected with the destination-side disc.

        Both sides use the searching range ``gamma`` (Section V-A2).
        This is the filter the paper blames for T-Share's small
        candidate sets: taxis that could serve the request but are
        currently far from *both* endpoints — e.g. heading towards the
        origin from beyond ``gamma`` — are removed outright.
        """
        speed = self._network.speed_mps
        gamma = self._config.search_range_m
        # Origin side: grids whose taxis can still make the pick-up
        # deadline — the temporal radius speed * Delta_t, never wider
        # than gamma.
        origin_radius = min(gamma, max(0.0, request.max_wait) * speed)
        ox, oy = self._network.xy[request.origin]
        origin_hits = self._position_index.query_radius_cells(
            float(ox), float(oy), origin_radius
        )

        # Destination side: grids whose taxis can still make the
        # delivery deadline from their current position.
        dx, dy = self._network.xy[request.destination]
        dest_radius = max(0.0, request.deadline - now) * speed
        dest_ids = {
            taxi_id
            for taxi_id, _d in self._position_index.query_radius_cells(
                float(dx), float(dy), dest_radius
            )
        }

        candidates = []
        for taxi_id, _dist in origin_hits:  # nearest first
            if taxi_id not in dest_ids:
                continue
            taxi = self._fleet[taxi_id]
            if taxi.committed + request.num_passengers > taxi.capacity:
                continue
            candidates.append(taxi)
        return candidates

    def _first_feasible_insertion(self, taxi: Taxi, request: RideRequest, now: float):
        """T-Share stops at the first *valid* schedule instance — it does
        not look for the minimum-detour one (Section V-A2)."""

        node, ready = taxi.position_at(now)
        cost_fn = self._engine.cost
        for _i, _j, stops in enumerate_insertions(taxi.pending_stops(), request):
            if not capacity_ok(stops, taxi.occupancy, taxi.capacity):
                continue
            times = arrival_times(node, ready, stops, cost_fn)
            if not deadlines_met(stops, times):
                continue
            detour = (times[-1] - ready) - taxi.remaining_route_cost(ready)
            return detour, stops, node, ready
        return None

    def dispatch(self, request: RideRequest, now: float) -> MatchResult | None:
        """Return the *first* candidate with a feasible insertion."""
        with self._obs.stage("match.candidates"):
            candidates = self._dual_side_candidates(request, now)
        self._obs.count("match.candidates_found", len(candidates))
        self.last_candidate_count = len(candidates)
        for taxi in candidates[: self.max_examined]:
            node, ready = taxi.position_at(now)
            if ready + self._engine.cost(node, request.origin) > request.pickup_deadline:
                continue
            with self._obs.stage("match.insertion"):
                found = self._first_feasible_insertion(taxi, request, now)
            if found is None:
                continue
            detour, stops, node, ready = found
            try:
                route = self._fallback_router.route_for_schedule(node, ready, stops)
            except RouteInfeasible:  # infeasible route, try next taxi
                continue
            return MatchResult(
                taxi_id=taxi.taxi_id,
                stops=tuple(stops),
                route=route,
                detour_cost=detour,
                num_candidates=len(candidates),
            )
        return None

    def index_memory_bytes(self) -> int:
        """Footprint of the position grid."""
        return self._position_index.memory_bytes()
