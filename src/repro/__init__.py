"""repro — a full reproduction of mT-Share (Liu et al., ICDE 2020 / IoT-J 2022).

mT-Share is a mobility-aware dynamic taxi-ridesharing system: it
indexes taxis and ride requests by map partitions mined from historical
mobility data and by travel-direction clusters, matches each request to
the minimum-detour taxi, and routes shared taxis either along shortest
paths or along probability-maximising routes that pick up *offline*
street-hailing passengers.

Quickstart::

    from repro import ScenarioSpec, Simulator, get_scenario

    scenario = get_scenario(ScenarioSpec(kind="peak", hourly_requests=300))
    scheme = scenario.make_scheme("mt-share")
    sim = Simulator(scheme, scenario.make_fleet(50), scenario.requests())
    print(sim.run().summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # what the names below are, for type checkers and IDEs
    from .baselines import DispatchScheme, NoSharing, PGreedyDP, TShare
    from .config import SystemConfig
    from .core import (
        FareSchedule,
        Matcher,
        MatchResult,
        MobilityClusterIndex,
        MobilityVector,
        MTShare,
        PartitionFilter,
        PaymentModel,
    )
    from .demand import ChengduLikeDemand, RideRequest, TripDataset
    from .fleet import Taxi, TaxiRoute
    from .network import (
        LandmarkGraph,
        RoadNetwork,
        ShortestPathEngine,
        grid_city,
        ring_radial_city,
    )
    from .partitioning import MapPartitioning, bipartite_partition, grid_partition
    from .sim import (
        Scenario,
        ScenarioSpec,
        SimulationMetrics,
        Simulator,
        get_scenario,
        nonpeak_spec,
        peak_spec,
    )

#: Subpackage -> the public names it exports.  A name is imported from
#: its home on first access (PEP 562 ``__getattr__`` below), so
#: ``import repro`` — which every ``python -m repro`` sub-command, every
#: spawned worker and every ``from repro.x import y`` runs first — loads
#: nothing, and ``from repro import Simulator`` loads ``repro.sim``.
_HOMES = {
    "baselines": ("DispatchScheme", "NoSharing", "PGreedyDP", "TShare"),
    "config": ("SystemConfig",),
    "core": (
        "FareSchedule", "Matcher", "MatchResult", "MobilityClusterIndex",
        "MobilityVector", "MTShare", "PartitionFilter", "PaymentModel",
    ),
    "demand": ("ChengduLikeDemand", "RideRequest", "TripDataset"),
    "fleet": ("Taxi", "TaxiRoute"),
    "network": (
        "LandmarkGraph", "RoadNetwork", "ShortestPathEngine", "grid_city",
        "ring_radial_city",
    ),
    "partitioning": ("MapPartitioning", "bipartite_partition", "grid_partition"),
    "sim": (
        "Scenario", "ScenarioSpec", "SimulationMetrics", "Simulator",
        "get_scenario", "nonpeak_spec", "peak_spec",
    ),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__version__ = "1.0.0"

__all__ = [
    "ChengduLikeDemand",
    "DispatchScheme",
    "FareSchedule",
    "LandmarkGraph",
    "MTShare",
    "MapPartitioning",
    "MatchResult",
    "Matcher",
    "MobilityClusterIndex",
    "MobilityVector",
    "NoSharing",
    "PGreedyDP",
    "PartitionFilter",
    "PaymentModel",
    "RideRequest",
    "RoadNetwork",
    "Scenario",
    "ScenarioSpec",
    "ShortestPathEngine",
    "SimulationMetrics",
    "Simulator",
    "SystemConfig",
    "TShare",
    "Taxi",
    "TaxiRoute",
    "TripDataset",
    "bipartite_partition",
    "get_scenario",
    "grid_city",
    "grid_partition",
    "nonpeak_spec",
    "peak_spec",
    "ring_radial_city",
    "__version__",
]


def __getattr__(name: str) -> object:
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
