"""The paper's core contribution: indexing, matching, routing, payment."""

from typing import TYPE_CHECKING

from .matching import Matcher, MatchResult, request_vector, taxi_vector
from .mobility_cluster import (
    DEFAULT_LAMBDA,
    MobilityClusterIndex,
    MobilityVector,
)
from .partition_filter import PartitionFilter
from .payment import (
    DEFAULT_BETA,
    DEFAULT_ETA,
    FareSchedule,
    PassengerCharge,
    PaymentModel,
    Settlement,
)
from .routing import BasicRouter, ProbabilisticRouter, RouteInfeasible, compose_route

if TYPE_CHECKING:
    from .mtshare import MTShare

__all__ = [
    "BasicRouter",
    "DEFAULT_BETA",
    "DEFAULT_ETA",
    "DEFAULT_LAMBDA",
    "FareSchedule",
    "MTShare",
    "MatchResult",
    "Matcher",
    "MobilityClusterIndex",
    "MobilityVector",
    "PartitionFilter",
    "PassengerCharge",
    "PaymentModel",
    "ProbabilisticRouter",
    "RouteInfeasible",
    "Settlement",
    "compose_route",
    "request_vector",
    "taxi_vector",
]


def __getattr__(name: str) -> object:
    # MTShare subclasses baselines.DispatchScheme, which is itself built
    # on .matching and .routing.  Importing .mtshare above would make
    # "repro.core before repro.baselines" the only import order that
    # works; resolved on first access, any submodule can be imported first.
    if name == "MTShare":
        from .mtshare import MTShare

        return MTShare
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
