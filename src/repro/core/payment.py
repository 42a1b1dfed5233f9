"""The mT-Share payment model (Section IV-D, Eqs. 5-8).

Ridesharing creates a monetary *benefit*: the metered fare of the
passengers' individual shortest-path trips exceeds the metered fare of
the single shared route.  mT-Share splits that benefit between the
driver (share ``1 - beta``) and the passengers as a group (share
``beta``), and divides the passenger share proportionally to *detour
rates* — passengers who detoured more are compensated more — with a
base rate ``eta`` guaranteeing everyone a positive saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

#: ``beta``: the passengers' share of the benefit (Eq. 8); the driver
#: keeps ``1 - BETA``.  The paper fixes 0.8.
BETA = 0.8
#: ``eta``: base detour rate (Eq. 6), so zero-detour passengers still
#: get a positive share.  The paper fixes 0.01.
ETA = 0.01


@dataclass(frozen=True, slots=True)
class FareSchedule:
    """A metered taxi tariff: flag-fall plus a per-kilometre rate.

    Defaults approximate the Chengdu taxi tariff of the study period:
    8 yuan covering the first 2 km, then 1.9 yuan per km.
    """

    base_fare: float = 8.0
    base_distance_m: float = 2000.0
    per_km: float = 1.9

    def fare(self, distance_m: float) -> float:
        """Metered fare for a trip of ``distance_m`` metres."""
        if distance_m < 0:
            raise ValueError("distance must be non-negative")
        extra = max(0.0, distance_m - self.base_distance_m)
        return self.base_fare + self.per_km * extra / 1000.0


@dataclass(frozen=True, slots=True)
class PassengerCharge:
    """Outcome of the payment model for one passenger."""

    request_id: int
    regular_fare: float
    shared_fare: float
    detour_rate: float

    @property
    def saving(self) -> float:
        """Absolute saving versus riding alone."""
        return self.regular_fare - self.shared_fare


@dataclass(frozen=True, slots=True)
class Settlement:
    """Full settlement of one ridesharing episode."""

    charges: tuple[PassengerCharge, ...]
    route_fare: float
    benefit: float
    driver_income: float

    @property
    def total_passenger_payment(self) -> float:
        """Sum of all shared fares."""
        return sum(c.shared_fare for c in self.charges)

    @property
    def total_regular_fare(self) -> float:
        """What the same passengers would have paid riding alone."""
        return sum(c.regular_fare for c in self.charges)


class PaymentModel:
    """Benefit sharing between a taxi driver and ridesharing passengers.

    Parameters
    ----------
    schedule:
        The metered tariff used for all fares.  The rates ``beta`` and
        ``eta`` are the paper's, :data:`BETA` and :data:`ETA`.
    """

    def __init__(self, schedule: FareSchedule | None = None) -> None:
        self._schedule = schedule if schedule is not None else FareSchedule()

    # ------------------------------------------------------------------
    def detour_rate(self, shared_distance_m: float, shortest_distance_m: float) -> float:
        """``sigma_i`` (Eq. 6): base rate plus relative detour.

        ``shared_distance_m`` is the distance the passenger actually
        travelled on board; ``shortest_distance_m`` the direct
        shortest-path distance of their trip.
        """
        if shortest_distance_m <= 0:
            raise ValueError("shortest distance must be positive")
        detour = max(0.0, shared_distance_m - shortest_distance_m)
        return ETA + detour / shortest_distance_m

    def projected_detour_rate(
        self,
        travelled_so_far_m: float,
        remaining_shortest_m: float,
        shortest_distance_m: float,
    ) -> float:
        """``sigma_j`` for a passenger still on board (Eq. 7).

        Assumes the taxi finishes their trip along the shortest path
        from the current drop-off point.
        """
        if shortest_distance_m <= 0:
            raise ValueError("shortest distance must be positive")
        projected = travelled_so_far_m + remaining_shortest_m
        detour = max(0.0, projected - shortest_distance_m)
        return ETA + detour / shortest_distance_m

    def benefit(
        self,
        shortest_distances_m: Sequence[float],
        route_distance_m: float,
    ) -> float:
        """``B`` (Eq. 5): sum of individual fares minus the route fare."""
        individual = sum(self._schedule.fare(d) for d in shortest_distances_m)
        return individual - self._schedule.fare(route_distance_m)

    def settle(
        self,
        shortest_distances_m: Mapping[int, float],
        shared_distances_m: Mapping[int, float],
        route_distance_m: float,
    ) -> Settlement:
        """Settle a completed ridesharing episode (Eqs. 5-8).

        Parameters
        ----------
        shortest_distances_m:
            Per request: the direct shortest-path trip distance.
        shared_distances_m:
            Per request: the distance actually travelled on board.
        route_distance_m:
            Total distance the taxi drove for the episode.

        The benefit is clamped at zero: when sharing saved nothing
        (single passenger, or detours ate the gain) everyone simply
        pays the regular fare and the driver earns the metered route.
        """
        if set(shortest_distances_m) != set(shared_distances_m):
            raise ValueError("shortest and shared distance maps must cover the same requests")
        ids = sorted(shortest_distances_m)
        regular = {i: self._schedule.fare(shortest_distances_m[i]) for i in ids}
        route_fare = self._schedule.fare(route_distance_m)
        benefit = max(0.0, sum(regular.values()) - route_fare)

        sigmas = {
            i: self.detour_rate(shared_distances_m[i], shortest_distances_m[i]) for i in ids
        }
        sigma_total = sum(sigmas.values())
        beta = BETA
        charges: list[PassengerCharge] = []
        for i in ids:
            share = sigmas[i] / sigma_total if sigma_total > 0 else 0.0
            shared_fare = regular[i] - beta * benefit * share
            charges.append(
                PassengerCharge(
                    request_id=i,
                    regular_fare=regular[i],
                    shared_fare=shared_fare,
                    detour_rate=sigmas[i],
                )
            )
        driver_income = route_fare + (1.0 - beta) * benefit
        return Settlement(
            charges=tuple(charges),
            route_fare=route_fare,
            benefit=benefit,
            driver_income=driver_income,
        )

    def fare_at_dropoff(
        self,
        arriving_id: int,
        shortest_distances_m: Mapping[int, float],
        shared_distances_m: Mapping[int, float],
        projected_extra_m: Mapping[int, float],
        route_distance_m: float,
    ) -> float:
        """On-line fare for the passenger being dropped off (Eq. 8).

        ``projected_extra_m`` gives, for each co-rider still on board,
        the shortest-path distance from the arriving passenger's
        destination to theirs (the ``R^s_(d_ri, d_rj)`` term of Eq. 7);
        the arriving passenger's own entry must be 0.
        """
        ids = sorted(shortest_distances_m)
        if arriving_id not in shortest_distances_m:
            raise ValueError("arriving passenger missing from the distance maps")
        regular = {i: self._schedule.fare(shortest_distances_m[i]) for i in ids}
        benefit = max(0.0, sum(regular.values()) - self._schedule.fare(route_distance_m))
        sigmas: dict[int, float] = {}
        for i in ids:
            if i == arriving_id:
                sigmas[i] = self.detour_rate(shared_distances_m[i], shortest_distances_m[i])
            else:
                sigmas[i] = self.projected_detour_rate(
                    shared_distances_m[i],
                    projected_extra_m.get(i, 0.0),
                    shortest_distances_m[i],
                )
        sigma_total = sum(sigmas.values())
        share = sigmas[arriving_id] / sigma_total if sigma_total > 0 else 0.0
        return regular[arriving_id] - BETA * benefit * share
