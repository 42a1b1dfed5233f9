"""Taxi state and route execution (Definitions 3–5 of the paper).

A taxi's status is its current location, its schedule (a stop sequence)
and its route (the concrete vertex path realising the schedule, with an
arrival time per vertex).  The simulator drives taxis forward in time
by consuming their routes vertex by vertex; stops fire when their
vertex position on the route is reached, moving passengers on and off.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..demand.request import RideRequest, ServedTrip
from .schedule import Stop, StopKind

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .table import FleetTable


class TaxiError(RuntimeError):
    """Raised on inconsistent taxi-state transitions."""


@dataclass
class TaxiRoute:
    """A planned route: vertices, per-vertex arrival times, stop markers.

    Attributes
    ----------
    nodes:
        Vertex sequence starting at the planning position.
    times:
        Arrival time (seconds) at each vertex; ``times[0]`` is the
        departure time at ``nodes[0]``.
    stop_positions:
        For each stop of the schedule (in order), the index into
        ``nodes`` where it is served.  Non-decreasing.
    """

    nodes: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    stop_positions: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.times):
            raise TaxiError("route nodes and times must have equal length")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise TaxiError("route times must be non-decreasing")
        if any(b < a for a, b in zip(self.stop_positions, self.stop_positions[1:])):
            raise TaxiError("stop positions must be non-decreasing")
        if self.stop_positions and self.stop_positions[-1] >= len(self.nodes):
            raise TaxiError("stop position beyond route end")

    @classmethod
    def cruise(cls, path: Sequence[int], costs: Sequence[float], start_time: float) -> TaxiRoute:
        """A stop-less route along ``path``, leaving at ``start_time``;
        ``costs`` holds each hop's travel time (``RoadNetwork.hop_costs``)."""
        times = [start_time]
        t = start_time
        for c in costs:
            t += c
            times.append(t)
        return cls(nodes=[int(n) for n in path], times=times, stop_positions=[])

    @property
    def empty(self) -> bool:
        """Whether there is nothing left to drive."""
        return not self.nodes

    @property
    def end_time(self) -> float:
        """Arrival time at the final vertex."""
        if self.empty:
            raise TaxiError("empty route has no end time")
        return self.times[-1]

    def total_cost(self) -> float:
        """Travel time from departure to the last vertex."""
        if self.empty:
            return 0.0
        return self.times[-1] - self.times[0]


@dataclass
class Taxi:
    """Mutable taxi state driven by the simulator.

    Attributes
    ----------
    taxi_id:
        Fleet-unique id.
    capacity:
        Maximum simultaneous passengers.
    loc:
        Last vertex reached (the taxi is at/just past this vertex).
    loc_time:
        The time the taxi was at ``loc``.
    schedule:
        Pending stops, in service order.
    route:
        Concrete route realising ``schedule`` (may be empty when idle).
    onboard:
        Requests whose passengers are currently in the car.
    assigned:
        Requests matched to this taxi but not yet picked up.
    """

    taxi_id: int
    capacity: int
    loc: int
    loc_time: float = 0.0
    schedule: list[Stop] = field(default_factory=list)
    route: TaxiRoute = field(default_factory=TaxiRoute)
    onboard: dict[int, RideRequest] = field(default_factory=dict)
    assigned: dict[int, RideRequest] = field(default_factory=dict)
    #: Broken-down taxis stay in the fleet dict (their log entries and
    #: episode settlements remain addressable) but are skipped by the
    #: simulator and must never receive new plans.
    out_of_service: bool = False
    _route_cursor: int = 0
    _stops_fired: int = 0
    _onboard_pax: int = 0
    _assigned_pax: int = 0
    _stops_fired_total: int = 0
    #: The fleet table this taxi writes its row of (:meth:`attach`).
    _table: FleetTable | None = field(default=None, repr=False, compare=False)
    _row: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when the taxi has no pending stops."""
        return not self.schedule

    @property
    def cruising(self) -> bool:
        """True when idle but still following a stop-less (cruise) route.

        Demand-seeking and repositioning cruises are plans with no
        stops, so a cruising taxi is ``idle`` (matchable) yet moving; a
        fully-consumed cruise route is cleared by :meth:`advance`, so
        parked taxis always report ``False``.
        """
        return not self.schedule and self._route_cursor < len(self.route.nodes)

    @property
    def occupancy(self) -> int:
        """Passengers currently in the car (O(1), kept incrementally)."""
        return self._onboard_pax

    @property
    def committed(self) -> int:
        """Passengers onboard plus assigned-but-waiting (O(1))."""
        return self._onboard_pax + self._assigned_pax

    @property
    def stops_fired_total(self) -> int:
        """Lifetime count of executed stops (monotone, never reset).

        ``_stops_fired`` indexes into the *current* schedule and resets
        whenever a plan completes or is replaced, so comparing it across
        an :meth:`advance` call cannot tell whether stops actually fired
        — the simulator compares this counter instead.
        """
        return self._stops_fired_total

    @property
    def next_due(self) -> float:
        """Arrival time at the next unconsumed route vertex; ``inf`` with no route left.

        :meth:`advance` is a strict no-op — returns ``[]``, changes no
        field — exactly when this is ``> now``: a parked taxi, a taxi
        mid-edge and a cruise between vertices all fall through both of
        its loops and its teardown gate.  The simulator's due index
        (docs/PERFORMANCE.md, "Fleet advancement") is keyed by it.
        """
        i = self._route_cursor
        times = self.route.times
        return times[i] if i < len(times) else math.inf

    def position_at(self, now: float) -> tuple[int, float]:
        """Planning position: the next vertex and when it is reached.

        A taxi mid-edge cannot be re-routed until the next vertex, so
        replanning always starts from ``(next_vertex, arrival_time)``;
        an idle or at-vertex taxi plans from ``(loc, now)``.  Callers
        need not :meth:`advance` the taxi first: the simulator advances
        every taxi with ``next_due <= now`` before anything reads a
        position at ``now``, and for the rest ``advance(now)`` would be
        a no-op — their cursor already points at the first vertex
        ahead of ``now``.  (A plan installed at this very boundary
        starts at its own planning position, possibly at or before
        ``now``; the ``max`` clamps that.)
        """
        route = self.route
        if self._route_cursor < len(route.nodes):
            i = self._route_cursor
            return route.nodes[i], max(now, route.times[i])
        return self.loc, max(now, self.loc_time)

    # ------------------------------------------------------------------
    # the fleet table row (repro.fleet.table)
    # ------------------------------------------------------------------
    def attach(self, table: FleetTable, row: int) -> None:
        """Write this taxi's state into row ``row`` of ``table``, now and
        at every later change of it."""
        self._table = table
        self._row = row
        self._write_plan()
        self._write_seats()

    def _write_plan(self) -> None:
        """Mirror the planning position, busy flag and route end."""
        table = self._table
        if table is None:
            return
        row = self._row
        route = self.route
        i = self._route_cursor
        if i < len(route.nodes):
            table.plan_vertex[row] = route.nodes[i]
            table.plan_time[row] = route.times[i]
        else:
            table.plan_vertex[row] = self.loc
            table.plan_time[row] = self.loc_time
        table.route_end[row] = self.route_end
        table.busy[row] = bool(self.schedule)

    def _write_seats(self) -> None:
        """Mirror the seats not yet promised."""
        table = self._table
        if table is not None:
            table.spare[self._row] = self.capacity - self._onboard_pax - self._assigned_pax

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def set_plan(self, stops: list[Stop], route: TaxiRoute) -> None:
        """Install a new schedule and route (after a successful match).

        The route must start from the taxi's planning position and must
        serve exactly ``stops`` via its ``stop_positions``.
        """
        if len(route.stop_positions) != len(stops):
            raise TaxiError("route stop markers do not match the schedule")
        if self.out_of_service:
            raise TaxiError(f"taxi {self.taxi_id} is out of service")
        self.schedule = list(stops)
        self.route = route
        self._route_cursor = 0
        self._stops_fired = 0
        self._write_plan()

    def clear_plan(self) -> None:
        """Drop the current schedule and route, leaving the taxi parked."""
        self.schedule = []
        self.route = TaxiRoute()
        self._route_cursor = 0
        self._stops_fired = 0
        self._write_plan()

    def assign(self, request: RideRequest) -> None:
        """Record a new not-yet-picked-up request."""
        if request.request_id in self.assigned or request.request_id in self.onboard:
            raise TaxiError(f"request {request.request_id} already on taxi {self.taxi_id}")
        if self.out_of_service:
            raise TaxiError(f"taxi {self.taxi_id} is out of service")
        self.assigned[request.request_id] = request
        self._assigned_pax += request.num_passengers
        self._write_seats()

    def unassign(self, request: RideRequest) -> None:
        """Withdraw a not-yet-picked-up request (passenger cancellation)."""
        rid = request.request_id
        if rid not in self.assigned:
            raise TaxiError(f"request {rid} is not assigned to taxi {self.taxi_id}")
        del self.assigned[rid]
        self._assigned_pax -= request.num_passengers
        self._write_seats()

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def break_down(self) -> tuple[list[RideRequest], list[RideRequest]]:
        """Take the taxi out of service at its current location.

        Clears the plan and sheds every commitment, returning
        ``(onboard, assigned)`` requests in ascending-id order so the
        simulator can recover them deterministically.  Onboard
        passengers are considered dropped at :attr:`loc`.
        """
        onboard = [self.onboard[rid] for rid in sorted(self.onboard)]
        assigned = [self.assigned[rid] for rid in sorted(self.assigned)]
        self.onboard = {}
        self.assigned = {}
        self._onboard_pax = 0
        self._assigned_pax = 0
        self._write_seats()
        self.clear_plan()
        self.out_of_service = True
        return onboard, assigned

    def apply_delay(self, delay_s: float) -> bool:
        """Shift every not-yet-reached route arrival by ``delay_s``.

        Models a zonal travel-time shock: the remainder of the current
        route takes ``delay_s`` seconds longer.  Returns False (no-op)
        when there is no remaining route or the delay is non-positive.
        The route object is replaced, never mutated in place — match
        results may still hold a reference to the original.
        """
        route = self.route
        cursor = self._route_cursor
        if delay_s <= 0.0 or cursor >= len(route.nodes):
            return False
        times = list(route.times)
        for i in range(cursor, len(times)):
            times[i] += delay_s
        self.route = TaxiRoute(
            nodes=list(route.nodes),
            times=times,
            stop_positions=list(route.stop_positions),
        )
        self._write_plan()
        return True

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def advance(
        self,
        now: float,
        on_pickup: Callable[["Taxi", RideRequest, float], None] | None = None,
        on_dropoff: Callable[["Taxi", RideRequest, float], None] | None = None,
    ) -> list[tuple[int, float]]:
        """Drive the taxi forward to time ``now``.

        Consumes route vertices whose arrival time has passed, firing
        pick-up/drop-off stops in order.  Returns the list of
        ``(vertex, arrival_time)`` pairs traversed, which the simulator
        scans for offline-request encounters.
        """
        traversed: list[tuple[int, float]] = []
        route = self.route
        while self._route_cursor < len(route.nodes) and route.times[self._route_cursor] <= now:
            i = self._route_cursor
            node = route.nodes[i]
            t = route.times[i]
            traversed.append((node, t))
            self.loc = node
            self.loc_time = t
            # Fire every stop scheduled at this route position.
            while (
                self._stops_fired < len(route.stop_positions)
                and route.stop_positions[self._stops_fired] == i
            ):
                stop = self.schedule[self._stops_fired]
                self._fire_stop(stop, t, on_pickup, on_dropoff)
                self._stops_fired += 1
                self._stops_fired_total += 1
            self._route_cursor += 1

        # Tear down a completed plan.  The gate must not require
        # ``_stops_fired`` to be truthy (a zero-stop plan installed via
        # ``set_plan`` would otherwise never reset) and must also handle
        # a fully-fired schedule whose route carries trailing vertices:
        # such a taxi has served everyone, so the leftover tail is a
        # passenger-less cruise, not a reason to report busy — with the
        # old gate it reported non-idle with no pending stops and spun
        # the drain loop until the horizon.
        if self._stops_fired == len(self.schedule):
            if self._route_cursor >= len(route.nodes):
                if self.schedule or route.nodes:
                    self.clear_plan()
            elif self.schedule:
                # All stops served but vertices remain: demote the tail
                # to a cruise (idle semantics, position tracking intact).
                self.route = TaxiRoute(
                    nodes=list(route.nodes),
                    times=list(route.times),
                    stop_positions=[],
                )
                self.schedule = []
                self._stops_fired = 0
        if traversed:
            self._write_plan()
            self._write_seats()
        return traversed

    def _fire_stop(
        self,
        stop: Stop,
        t: float,
        on_pickup: Callable[["Taxi", RideRequest, float], None] | None,
        on_dropoff: Callable[["Taxi", RideRequest, float], None] | None,
    ) -> None:
        rid = stop.request.request_id
        if stop.kind is StopKind.PICKUP:
            request = self.assigned.pop(rid, None)
            if request is None:
                raise TaxiError(f"pick-up fired for unassigned request {rid}")
            self.onboard[rid] = request
            self._assigned_pax -= request.num_passengers
            self._onboard_pax += request.num_passengers
            if self.occupancy > self.capacity:
                raise TaxiError(f"taxi {self.taxi_id} over capacity after pick-up {rid}")
            if on_pickup is not None:
                on_pickup(self, request, t)
        else:
            request = self.onboard.pop(rid, None)
            if request is None:
                raise TaxiError(f"drop-off fired for request {rid} not onboard")
            self._onboard_pax -= request.num_passengers
            if on_dropoff is not None:
                on_dropoff(self, request, t)

    def pending_stops(self) -> list[Stop]:
        """Stops not yet executed, in order."""
        return self.schedule[self._stops_fired:]

    @property
    def route_end(self) -> float:
        """End time of the route the pending stops are served on;
        ``-inf`` with no stops or nothing left to drive, where
        :meth:`remaining_route_cost` is 0 whatever the time."""
        route = self.route
        if self.schedule and self._route_cursor < len(route.nodes):
            return route.times[-1]
        return -math.inf

    def remaining_route_cost(self, from_time: float) -> float:
        """Travel time still ahead on the current route, measured from
        ``from_time`` (the planning time).  This is the ``cost(R_tj)``
        term in the detour-cost definition (Eq. 4).  A passenger-less
        cruise route counts as zero: abandoning it costs nothing."""
        return max(0.0, self.route_end - from_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Taxi(id={self.taxi_id}, loc={self.loc}, onboard={len(self.onboard)}, "
            f"assigned={len(self.assigned)}, stops={len(self.pending_stops())})"
        )


@dataclass
class FleetLog:
    """Per-request service records accumulated during a simulation."""

    trips: dict[int, ServedTrip] = field(default_factory=dict)

    def record_assignment(self, request: RideRequest, taxi_id: int, assign_time: float) -> None:
        """Register a matched request (before pick-up)."""
        self.trips[request.request_id] = ServedTrip(
            request=request, taxi_id=taxi_id, assign_time=assign_time
        )

    def record_pickup(self, request: RideRequest, t: float) -> None:
        """Register the pick-up time of a matched request."""
        self.trips[request.request_id].pickup_time = t

    def record_dropoff(self, request: RideRequest, t: float) -> None:
        """Register the drop-off; fixes the shared travel cost."""
        trip = self.trips[request.request_id]
        trip.dropoff_time = t
        trip.shared_travel_cost = t - trip.pickup_time

    def completed(self) -> list[ServedTrip]:
        """Trips whose passengers reached their destination."""
        return [t for t in self.trips.values() if t.completed]
