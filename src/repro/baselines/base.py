"""The dispatcher interface shared by mT-Share and every baseline.

The simulator is scheme-agnostic: it feeds requests and taxi-movement
notifications to a :class:`DispatchScheme` and installs the plans the
scheme returns.  Each scheme owns its own index structures; the
simulator owns the fleet and the clock.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Iterator

from ..analysis import contracts
from ..config import SystemConfig
from ..core.matching import (
    MatchResult,
    best_insertion_for_taxi,
    keeps_seats_idle,
    taxi_vector_with,
)
from ..demand.request import RideRequest
from ..fleet.schedule import remove_request_stops
from ..fleet.taxi import Taxi
from ..memo import BoundedMemo
from ..network.graph import RoadNetwork
from ..network.shortest_path import ShortestPathEngine
from ..obs import NULL, Instrumentation
from ..core.routing import BasicRouter, ProbabilisticRouter, RouteInfeasible, compose_route


class DispatchScheme(abc.ABC):
    """Base class for ridesharing dispatch schemes.

    Subclasses implement :meth:`dispatch` (match one online request)
    and may override the indexing hooks.  The lifecycle is::

        scheme = SomeScheme(network, engine, config)
        scheme.register_fleet(fleet, now=0.0)
        ...
        result = scheme.dispatch(request, now)
        if result is not None:
            scheme.install(result, request, now)
    """

    #: Human-readable scheme name used in reports.
    name = "abstract"

    #: Batch-window length in simulation seconds.  ``None`` (every
    #: greedy scheme) dispatches each online request immediately at its
    #: release; a float makes the simulator buffer releases and flush
    #: them through :meth:`match_window` at ``window.tick`` boundaries
    #: (``0.0`` flushes a single-request window per release).
    dispatch_window_s: float | None = None

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        config: SystemConfig,
    ) -> None:
        self._network = network
        self._engine = engine
        self._config = config
        self._fleet: dict[int, Taxi] = {}
        self._fallback_router = BasicRouter(network, engine, None)
        self._prob_router: ProbabilisticRouter | None = None
        # taxi id -> earliest time of its next demand-seeking cruise attempt.
        self._cruise_cooldown: dict[int, float] = {}
        self._obs: Instrumentation = NULL

    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The road network."""
        return self._network

    @property
    def engine(self) -> ShortestPathEngine:
        """Cached shortest-path engine."""
        return self._engine

    @property
    def config(self) -> SystemConfig:
        """System parameters."""
        return self._config

    @property
    def fleet(self) -> dict[int, Taxi]:
        """The registered taxis, by id."""
        return self._fleet

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def instrument(self, obs: Instrumentation) -> None:
        """Attach an observability registry and propagate it downstream.

        The simulator calls this once before the run; subclasses extend
        it to cover their own matchers/routers/indexes.
        """
        self._obs = obs
        self._fallback_router.instrument(obs)
        if self._prob_router is not None:
            self._prob_router.instrument(obs)

    def collect_observability(self, obs: Instrumentation) -> None:
        """Report end-of-run gauges (index sizes, fallback tallies)."""
        obs.gauge("route.fallbacks_total", self._fallback_router.fallbacks)
        if self._prob_router is not None:
            obs.gauge("route.sector_entries", self._prob_router.sector_entries)

    def memos(self) -> Iterator[tuple[str, BoundedMemo]]:
        """Every memo outside the engine, under its ``kernel.*`` metric name.

        The simulator snapshots these next to ``engine.stats()`` at run
        start and reports the deltas at run end; memos sharing a name
        (one leg memo per router) add up.
        """
        yield "kernel.subgraph", self._network.corridors
        yield "kernel.legcache", self._fallback_router.legs
        if self._prob_router is not None:
            yield "kernel.legcache", self._prob_router.legs
            yield "kernel.corridor_list", self._prob_router.corridor_lists
            yield "kernel.corridor_graph", self._prob_router.corridor_graphs

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def register_fleet(self, fleet: dict[int, Taxi], now: float) -> None:
        """Adopt the fleet and build initial indexes."""
        self._fleet = fleet
        for taxi in fleet.values():
            self._index_taxi(taxi, now)

    @abc.abstractmethod
    def dispatch(self, request: RideRequest, now: float) -> MatchResult | None:
        """Match an online request; ``None`` means it cannot be served."""

    def match_window(
        self, batch: list[RideRequest], now: float
    ) -> list[tuple[RideRequest, MatchResult | None]]:
        """Match one dispatch window's worth of requests globally.

        Only meaningful for schemes that set :attr:`dispatch_window_s`;
        the simulator never calls it otherwise.  Returns one
        ``(request, result-or-None)`` pair per batch entry, in batch
        order — a ``None`` result means "unmatched this window" and the
        simulator decides between rolling the request forward and
        declaring it unserved.
        """
        raise NotImplementedError(f"{self.name} does not batch dispatch windows")

    def _apply_plan(self, result: MatchResult, request: RideRequest, now: float) -> Taxi:
        """Raw plan application: assign, install route, refresh indexes."""
        taxi = self._fleet[result.taxi_id]
        contracts.check_schedule(result.stops, taxi.occupancy, taxi.capacity)
        taxi.assign(request)
        taxi.set_plan(list(result.stops), result.route)
        self._index_taxi(taxi, now)
        return taxi

    def on_taxi_advanced(self, taxi: Taxi, now: float, stops_fired: bool) -> None:
        """Called after the simulator moved a taxi.

        ``stops_fired`` is True when a pick-up/drop-off executed during
        the move.  Default: refresh the taxi's index entry when its
        passenger composition changed.
        """
        if stops_fired:
            self._index_taxi(taxi, now)

    def on_request_finished(self, request: RideRequest) -> None:
        """Called when a request's passengers are dropped off."""

    # ------------------------------------------------------------------
    # fault hooks (repro.faults; docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def on_taxi_breakdown(self, taxi: Taxi, now: float) -> None:
        """Called when a taxi goes out of service mid-run.

        Subclasses evict the taxi from their index structures so it can
        never again appear in a candidate set; the base scheme keeps no
        per-taxi index.  The simulator has already cleared the taxi's
        plan and commitments when this fires.
        """

    def on_taxi_replanned(self, taxi: Taxi, now: float) -> None:
        """Called after the simulator rewrote a taxi's plan in place
        (a cancellation removed stops, a shock delayed the route);
        default: refresh the taxi's index entries."""
        self._index_taxi(taxi, now)

    def cancel_assigned(self, taxi: Taxi, request: RideRequest, now: float) -> bool:
        """Withdraw an assigned-but-not-picked-up request from a taxi.

        Removes the request's stops from the pending schedule and
        replans the route for everyone left.  Stop removal only
        shortens arrivals (triangle inequality), so the deadline-checked
        replanning normally succeeds; if a shock delay has meanwhile
        pushed a co-rider past a deadline, the route is rebuilt from
        plain shortest paths without deadline validation — passengers
        already committed must still be delivered.  Returns True when
        the cancellation was applied.
        """
        node, ready = taxi.position_at(now)
        remaining = remove_request_stops(taxi.pending_stops(), request.request_id)
        taxi.unassign(request)
        if remaining:
            contracts.check_schedule(remaining, taxi.occupancy, taxi.capacity)
            try:
                route = self._fallback_router.route_for_schedule(node, ready, remaining)
            except RouteInfeasible:
                legs = []
                prev = node
                for stop in remaining:
                    legs.append(self._engine.path(prev, stop.node))
                    prev = stop.node
                route = compose_route(self._network, node, ready, legs)
            taxi.set_plan(remaining, route)
        else:
            taxi.clear_plan()
        self.on_request_finished(request)
        self.on_taxi_replanned(taxi, now)
        return True

    def index_memory_bytes(self) -> int:
        """Approximate footprint of this scheme's index structures."""
        return 0

    def check_fleet_table(self) -> None:
        """Contract hook the simulator runs at every boundary: check the
        scheme's index structures and fleet table against the state they
        mirror.  This scheme keeps none."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _index_taxi(self, taxi: Taxi, now: float) -> None:
        """Refresh the scheme's index entries for one taxi (hook)."""

    def generic_insertion(
        self,
        taxi: Taxi,
        request: RideRequest,
        now: float,
        router: BasicRouter,
    ) -> MatchResult | None:
        """Minimum-detour feasible insertion of ``request`` into one taxi.

        The street-hail path of every scheme (Section IV-C2: only the
        encountering taxi's schedule is examined; the paper extends
        T-Share and pGreedyDP the same way for fairness).  ``router``
        lays out the winning schedule: the baselines pass their plain
        shortest-path router, mT-Share its partition-filtered one.
        """
        best = best_insertion_for_taxi(self._engine, taxi, request, now, self._obs)
        if best is None:
            return None
        detour, stops = best
        node, ready = taxi.position_at(now)
        try:
            route = router.route_for_schedule(node, ready, stops)
        except RouteInfeasible:
            return None
        return MatchResult(
            taxi_id=taxi.taxi_id,
            stops=tuple(stops),
            route=route,
            detour_cost=detour,
            num_candidates=1,
        )

    def try_offline(self, taxi: Taxi, request: RideRequest, now: float) -> MatchResult | None:
        """Attempt to serve an offline request this taxi just encountered."""
        return self.generic_insertion(taxi, request, now, self._fallback_router)

    # ------------------------------------------------------------------
    # optional probabilistic routing (Fig. 16's scheme x routing grid)
    # ------------------------------------------------------------------
    def enable_probabilistic(self, router: ProbabilisticRouter) -> None:
        """Attach a probabilistic router to this scheme.

        The paper's Fig. 16 combines probabilistic routing with T-Share
        and pGreedyDP as well: after a match is found, the winning
        route is re-planned to maximise the chance of encountering
        suitable offline requests, whenever the taxi has enough idle
        seats (same trigger as mT-Share_pro).
        """
        self._prob_router = router

    def cruise_due(self, taxi: Taxi) -> float:
        """Earliest time :meth:`maybe_cruise` may act on ``taxi`` once it
        is parked and idle; ``inf`` for a scheme that never cruises (no
        probabilistic router attached, or cruising switched off)."""
        if self._prob_router is None or not self._config.enable_cruising:
            return math.inf
        return self._cruise_cooldown.get(taxi.taxi_id, 0.0)

    def maybe_cruise(self, taxi: Taxi, now: float) -> bool:
        """Send an idle taxi on a demand-seeking cruise (non-peak mode).

        Only active when a probabilistic router is attached; the paper's
        non-peak premise is that taxis without online assignments go
        looking for street-hailing passengers.  Attempts are rate
        limited per taxi so parked taxis do not replan continuously;
        the simulator calls this when a parked taxi's :meth:`cruise_due`
        time has come and whenever it advanced an idle taxi.
        """
        router = self._prob_router
        if router is None or not taxi.idle or taxi.cruising:
            return False  # busy, or still driving an earlier (seek or rebalance) cruise
        if now < self.cruise_due(taxi):
            return False
        route = router.cruise_route(taxi.loc, now)
        if route is None or route.empty:
            self._cruise_cooldown[taxi.taxi_id] = now + 300.0
            return False
        taxi.set_plan([], route)
        self._cruise_cooldown[taxi.taxi_id] = route.end_time
        self._index_taxi(taxi, now)
        return True

    def _maybe_probabilistic_route(self, taxi: Taxi, request: RideRequest,
                                   result: MatchResult, now: float) -> MatchResult:
        """Re-plan a match's route probabilistically when enabled."""
        if self._prob_router is None or not keeps_seats_idle(taxi, request):
            return result
        node, ready = taxi.position_at(now)
        vec = taxi_vector_with(self._network, taxi, request, now)
        try:
            route = self._prob_router.route_for_schedule(
                node, ready, list(result.stops), taxi_vector=vec
            )
        except RouteInfeasible:
            return result
        return MatchResult(
            taxi_id=result.taxi_id,
            stops=result.stops,
            route=route,
            detour_cost=route.total_cost() - taxi.remaining_route_cost(ready),
            num_candidates=result.num_candidates,
            probabilistic=True,
        )

    def install(self, result: MatchResult, request: RideRequest, now: float) -> Taxi:
        """Apply a match: assign the request and set the taxi's plan.

        When a probabilistic router is attached, the route is upgraded
        first (the schedule itself is unchanged).
        """
        taxi = self._fleet[result.taxi_id]
        if not result.probabilistic:
            result = self._maybe_probabilistic_route(taxi, request, result, now)
        return self._apply_plan(result, request, now)
