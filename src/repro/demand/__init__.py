"""Demand substrate: ride requests, trip datasets, synthetic trace generation."""

from .dataset import TripDataset
from .prediction import DemandPredictor
from .generator import (
    WEEKEND_HOURLY_PROFILE,
    WORKDAY_HOURLY_PROFILE,
    ZONE_TYPES,
    ChengduLikeDemand,
    Zone,
)
from .request import RequestError, RideRequest, ServedTrip

__all__ = [
    "ChengduLikeDemand",
    "DemandPredictor",
    "RequestError",
    "RideRequest",
    "ServedTrip",
    "TripDataset",
    "WEEKEND_HOURLY_PROFILE",
    "WORKDAY_HOURLY_PROFILE",
    "ZONE_TYPES",
    "Zone",
]
