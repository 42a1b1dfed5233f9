"""Ride requests and historical trip records (Definition 2 of the paper).

A ride request ``r_i = <t, o, d, e>`` is released at time ``t`` and must
deliver its passengers from origin vertex ``o`` to destination vertex
``d`` before the delivery deadline ``e``.  The paper derives ``e`` from
a *flexible factor* ``rho`` (Eq. 9): ``e = t + rho * cost(o, d)``, and
the pick-up deadline as ``e - cost(o, d)``.  Offline requests carry the
same fields but are invisible to the dispatcher until a taxi passes
their origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class RequestError(ValueError):
    """Raised when a ride request is constructed inconsistently."""


@dataclass(frozen=True, slots=True)
class RideRequest:
    """An immutable ride request.

    Attributes
    ----------
    request_id:
        Unique id within a workload.
    release_time:
        ``t_{r_i}`` in seconds since the scenario start.
    origin, destination:
        Road-network vertex ids ``o_{r_i}`` and ``d_{r_i}``.
    deadline:
        Delivery deadline ``e_{r_i}`` in seconds.
    direct_cost:
        Shortest-path travel cost ``cost(o, d)`` in seconds, fixed at
        workload-construction time (traffic is assumed stable).
    num_passengers:
        Riders travelling together under this request.
    offline:
        ``True`` for a street-hailing request ``\\bar{r}_i`` that the
        dispatcher cannot see until a taxi encounters it.
    """

    request_id: int
    release_time: float
    origin: int
    destination: int
    deadline: float
    direct_cost: float
    num_passengers: int = 1
    offline: bool = False

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and a request with
        # an infinite time would become a kernel event at infinity.
        if not (
            math.isfinite(self.release_time)
            and math.isfinite(self.deadline)
            and math.isfinite(self.direct_cost)
        ):
            raise RequestError("release_time, deadline and direct_cost must be finite")
        if self.release_time < 0:
            raise RequestError("release_time must be non-negative")
        if self.direct_cost < 0:
            raise RequestError("direct_cost must be non-negative")
        if self.deadline < self.release_time + self.direct_cost:
            raise RequestError(
                "deadline is infeasible: earlier than release_time + direct_cost"
            )
        if self.num_passengers < 1:
            raise RequestError("a request carries at least one passenger")

    @property
    def pickup_deadline(self) -> float:
        """Latest pick-up time ``e - cost(o, d)`` (Section III-A)."""
        return self.deadline - self.direct_cost

    @property
    def max_wait(self) -> float:
        """Waiting-time budget ``Delta t = e - cost(o, d) - t`` (Eq. 2)."""
        return self.pickup_deadline - self.release_time

    @property
    def slack(self) -> float:
        """Total tolerable extra travel time, ``e - t - cost(o, d)``."""
        return self.deadline - self.release_time - self.direct_cost

    @classmethod
    def from_flexible_factor(
        cls,
        request_id: int,
        release_time: float,
        origin: int,
        destination: int,
        direct_cost: float,
        rho: float = 1.3,
        num_passengers: int = 1,
        offline: bool = False,
    ) -> "RideRequest":
        """Build a request whose deadline follows Eq. 9: ``e = t + rho * cost``."""
        if not (math.isfinite(rho) and rho >= 1.0):
            raise RequestError("the flexible factor rho must be finite and >= 1")
        return cls(
            request_id=request_id,
            release_time=release_time,
            origin=origin,
            destination=destination,
            deadline=release_time + rho * direct_cost,
            direct_cost=direct_cost,
            num_passengers=num_passengers,
            offline=offline,
        )


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One historical taxi transaction from the (synthetic) trace.

    Mirrors the fields of the Didi GAIA records the paper mines:
    transaction id, taxi id, release time, pick-up and drop-off
    locations (already map-matched to road vertices).
    """

    trip_id: int
    taxi_id: int
    release_time: float
    origin: int
    destination: int


@dataclass(slots=True)
class ServedTrip:
    """Outcome of a served request, recorded by the simulator.

    Attributes are the raw ingredients of the paper's metrics: response
    time (matching latency), waiting time (pick-up minus release),
    detour time (shared travel minus direct travel), and the distances
    needed by the payment model.
    """

    request: RideRequest
    taxi_id: int
    assign_time: float
    pickup_time: float = field(default=float("nan"))
    dropoff_time: float = field(default=float("nan"))
    shared_travel_cost: float = field(default=float("nan"))

    @property
    def waiting_time(self) -> float:
        """Pick-up time minus release time, in seconds."""
        return self.pickup_time - self.request.release_time

    @property
    def detour_time(self) -> float:
        """Extra on-board travel versus the direct shortest path, >= 0."""
        return max(0.0, self.shared_travel_cost - self.request.direct_cost)

    @property
    def completed(self) -> bool:
        """Whether the passenger has been dropped off."""
        return self.dropoff_time == self.dropoff_time  # not NaN
