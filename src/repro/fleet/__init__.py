"""Fleet substrate: taxi state, schedules, insertion machinery, route execution."""

from .schedule import (
    Stop,
    StopKind,
    arrival_times,
    capacity_ok,
    deadlines_met,
    dropoff,
    enumerate_insertions,
    pickup,
    request_stop_pair,
)
from .taxi import FleetLog, Taxi, TaxiError, TaxiRoute

__all__ = [
    "FleetLog",
    "Stop",
    "StopKind",
    "Taxi",
    "TaxiError",
    "TaxiRoute",
    "arrival_times",
    "capacity_ok",
    "deadlines_met",
    "dropoff",
    "enumerate_insertions",
    "pickup",
    "request_stop_pair",
]
