"""pGreedyDP baseline (Tong et al., VLDB'18 — unified route planning).

pGreedyDP indexes taxis with a uniform grid like T-Share, but searches
*only* around the request's origin (range ``gamma``), so it gathers the
largest candidate sets of all compared schemes (the paper's Table III).
For every candidate it computes the minimum-detour feasible insertion
of the new pick-up/drop-off pair into the existing schedule — the
"insertion operator", solved with dynamic programming in the original
and here by the one insertion scorer every scheme shares
(:func:`repro.fleet.schedule.score_insertions`), which returns the same
optimum — and greedily assigns the request to the candidate with the
global minimum detour.  Examining every candidate exhaustively is also
why it shows the largest response times in the paper's Figs. 7 and 11.
"""

from __future__ import annotations

from ..core.matching import MatchResult, score_candidates
from ..core.routing import RouteInfeasible
from ..demand.request import RideRequest
from ..fleet.schedule import materialize_insertion
from ..fleet.table import Planning
from ..fleet.taxi import Taxi
from ..index.spatial import GridSpatialIndex
from .base import DispatchScheme


class PGreedyDP(DispatchScheme):
    """Origin-side grid search with exact min-detour insertion per taxi."""

    name = "pGreedyDP"

    def __init__(self, network, engine, config) -> None:
        super().__init__(network, engine, config)
        self._position_index = GridSpatialIndex(cell_size_m=config.search_range_m / 2.0)

    # ------------------------------------------------------------------
    def _index_taxi(self, taxi: Taxi, now: float) -> None:
        x, y = self._network.xy[taxi.loc]
        self._position_index.insert(taxi.taxi_id, float(x), float(y))

    def on_taxi_advanced(self, taxi: Taxi, now: float, stops_fired: bool) -> None:
        """Keep current positions fresh, as with T-Share."""
        self._index_taxi(taxi, now)

    def on_taxi_breakdown(self, taxi: Taxi, now: float) -> None:
        """Evict the broken taxi from the position grid."""
        self._position_index.remove(taxi.taxi_id)

    # ------------------------------------------------------------------
    def _candidates(self, request: RideRequest, now: float) -> list[Taxi]:
        gamma = self._config.search_range_m
        ox, oy = self._network.xy[request.origin]
        # Grid-granular range query: cells whose centre falls inside the
        # searching disc.  Taxis near the far edge of excluded cells are
        # invisible — the "partial trip information" cost of grid
        # indexing that mT-Share's vertex-exact indexes avoid.
        hits = self._position_index.query_radius_cells(float(ox), float(oy), gamma)
        out = []
        for taxi_id, _dist in hits:
            taxi = self._fleet[taxi_id]
            if taxi.committed + request.num_passengers > taxi.capacity:
                continue
            out.append(taxi)
        return out

    def dispatch(self, request: RideRequest, now: float) -> MatchResult | None:
        """Greedy assignment: the candidate with the global minimum detour."""
        with self._obs.stage("match.candidates"):
            candidates = self._candidates(request, now)
        self._obs.count("match.candidates_found", len(candidates))
        if not candidates:
            return None
        with self._obs.stage("match.insertion"):
            planning = Planning.of_taxis(candidates, now)
            scored = score_candidates(
                self._engine, candidates, planning, request, now, self._obs
            )
        # Minimum detour first, candidate order on a tie (the sort is
        # stable).  A route the fallback router cannot lay out passes
        # the request on to the next-best candidate, as in T-Share.
        scored.sort(key=lambda entry: entry[0])
        for detour, taxi, pending, i, j in scored:
            stops = materialize_insertion(pending, request, i, j)
            node, ready = taxi.position_at(now)
            try:
                route = self._fallback_router.route_for_schedule(node, ready, stops)
            except RouteInfeasible:
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
