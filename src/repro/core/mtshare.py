"""The mT-Share dispatcher: the paper's primary contribution, assembled.

:class:`MTShare` wires together bipartite map partitions, the landmark
graph, the transition model, the two-level taxi/request indexes, the
partition-filtered routers and the matcher into a
:class:`~repro.baselines.base.DispatchScheme` the simulator can drive.
``MTShare(probabilistic=True)`` is the paper's *mT-Share_pro* variant:
matched taxis with enough idle seats plan probability-seeking routes to
encounter offline street-hailing requests.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from ..analysis import contracts
from ..baselines.base import DispatchScheme
from ..config import SystemConfig
from ..demand.request import RideRequest
from ..fleet.table import FleetTable
from ..fleet.taxi import Taxi
from ..index.partition_index import PartitionTaxiIndex
from ..memo import BoundedMemo
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from ..partitioning.bipartite import MapPartitioning
from ..partitioning.transition import TransitionModel
from .matching import Matcher, MatchResult, request_vector, taxi_vector
from .mobility_cluster import MobilityClusterIndex
from .partition_filter import PartitionFilter
from .routing import BasicRouter, ProbabilisticRouter

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..obs import Instrumentation


def partition_routers(
    network: RoadNetwork,
    engine: ShortestPathEngine,
    landmarks: LandmarkGraph,
    config: SystemConfig,
    transition_model: TransitionModel | None = None,
) -> tuple[PartitionFilter, ProbabilisticRouter | None]:
    """Algorithm 2's filter over ``landmarks`` and, given a transition
    model, Algorithm 4's router on top of it, from ``config``'s
    ``lambda`` and steering; the slack ``EPSILON`` and the attempt cap
    ``MAX_ATTEMPTS`` are module constants.  mT-Share_pro and every ``+prob``
    baseline build their routers here."""
    pfilter = PartitionFilter(landmarks, lam=config.lam)
    if transition_model is None:
        return pfilter, None
    router = ProbabilisticRouter(
        network,
        engine,
        pfilter,
        transition_model,
        lam=config.lam,
        steering_m=config.prob_steering_m,
    )
    return pfilter, router


class MTShare(DispatchScheme):
    """Mobility-aware dynamic taxi ridesharing (Sections IV-B and IV-C).

    Parameters
    ----------
    network, engine:
        Road network and cached shortest-path engine.
    config:
        System parameters (Table II).
    partitioning:
        A :class:`MapPartitioning` — normally bipartite, but any
        strategy works, which is how the Table V ablation runs mT-Share
        on grid partitions.  Must carry a fitted transition model when
        ``probabilistic`` is requested.
    probabilistic:
        Enable probabilistic routing (the mT-Share_pro variant).
    landmarks:
        Optional prebuilt :class:`LandmarkGraph` for ``partitioning``
        (e.g. restored from the artifact store); built from scratch
        when omitted.
    """

    name = "mT-Share"

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        config: SystemConfig,
        partitioning: MapPartitioning,
        probabilistic: bool = False,
        landmarks: LandmarkGraph | None = None,
    ) -> None:
        super().__init__(network, engine, config)
        if probabilistic and partitioning.transition_model is None:
            raise ValueError("probabilistic routing needs a fitted transition model")
        if landmarks is not None and landmarks.num_partitions != partitioning.num_partitions:
            raise ValueError("landmarks do not match the supplied partitioning")
        self._landmarks = (
            landmarks
            if landmarks is not None
            else LandmarkGraph(network, partitioning.partitions, engine)
        )
        self._filter, self._prob_router = partition_routers(
            network,
            engine,
            self._landmarks,
            config,
            partitioning.transition_model if probabilistic else None,
        )
        self._basic_router = BasicRouter(network, engine, self._filter)
        if probabilistic:
            self.name = "mT-Share-pro"
        self._pindex = PartitionTaxiIndex(self._landmarks.num_partitions)
        self._cindex = MobilityClusterIndex(lam=config.lam)
        self._table = FleetTable([])
        self._matcher = Matcher(
            network,
            engine,
            self._landmarks,
            self._pindex,
            self._cindex,
            config,
            self._basic_router,
            self._prob_router,
        )

    # ------------------------------------------------------------------
    @property
    def partition_index(self) -> PartitionTaxiIndex:
        """``P_z.L_t`` taxi lists."""
        return self._pindex

    @property
    def cluster_index(self) -> MobilityClusterIndex:
        """Mobility clusters with ``C_a.L_t`` taxi lists."""
        return self._cindex

    @property
    def matcher(self) -> Matcher:
        """The candidate-search + scheduling engine."""
        return self._matcher

    @property
    def probabilistic(self) -> bool:
        """Whether this instance is the mT-Share_pro variant."""
        return self._prob_router is not None

    # ------------------------------------------------------------------
    def instrument(self, obs: Instrumentation) -> None:
        """Attach observability to the matcher and both routers."""
        super().instrument(obs)
        self._basic_router.instrument(obs)
        if self._prob_router is not None:
            self._prob_router.instrument(obs)
        self._matcher.instrument(obs)

    def collect_observability(self, obs: Instrumentation) -> None:
        """End-of-run index gauges (Table IV's structures, live sizes)."""
        super().collect_observability(obs)
        fallbacks = self._fallback_router.fallbacks + self._basic_router.fallbacks
        if self._prob_router is not None:
            fallbacks += self._prob_router.fallbacks
        obs.gauge("route.fallbacks_total", fallbacks)
        obs.gauge("index.partition_entries", self._pindex.total_entries())
        obs.gauge("index.clusters", self._cindex.num_clusters)
        obs.gauge("index.memory_bytes", self.index_memory_bytes())

    def memos(self) -> Iterator[tuple[str, BoundedMemo]]:
        """The base scheme's memos plus the filtered router's and the disc memo."""
        yield from super().memos()
        yield "kernel.legcache", self._basic_router.legs
        yield "kernel.disc", self._landmarks.discs

    # ------------------------------------------------------------------
    def register_fleet(self, fleet: dict[int, Taxi], now: float) -> None:
        """Lay out both index views over the fleet with one id -> column
        map (ascending by id), index the fleet, then build the fleet
        table over the same layout and hand it to the matcher."""
        self._pindex.register(fleet)
        self._cindex.register(self._pindex.column_of)
        super().register_fleet(fleet, now)
        self._table = FleetTable([fleet[tid] for tid in self._pindex.taxi_ids])
        self._matcher.use_table(self._table)

    def check_fleet_table(self) -> None:
        """No out-of-service taxi is listed in any partition, the
        cluster columns hold live clusters only, and every fleet-table
        column equals the state it mirrors (contracts)."""
        contracts.check_out_of_service_unlisted(self._fleet, self._pindex)
        contracts.check_cluster_columns(self._fleet, self._cindex)
        contracts.check_fleet_table(self._table)

    def _index_taxi(self, taxi: Taxi, now: float) -> None:
        """Refresh both index views for one taxi.

        Busy and *cruising* taxis are indexed by their remaining route
        (the partition lists record future arrivals); parked taxis by
        their current partition.  Only taxis with passengers carry a
        mobility vector.
        """
        route = taxi.route
        start = taxi._route_cursor  # noqa: SLF001 - fleet and core cooperate
        if start < len(route.nodes):
            self._pindex.update_taxi_from_route(
                taxi.taxi_id,
                route.nodes[start:],
                route.times[start:],
                self._landmarks.partition_of,
                now,
            )
        else:
            partition = self._landmarks.partition_of(taxi.loc)
            self._pindex.place_idle_taxi(taxi.taxi_id, partition, now)
        self._cindex.update_taxi(taxi.taxi_id, taxi_vector(self._network, taxi, now))

    def dispatch(self, request: RideRequest, now: float) -> MatchResult | None:
        """Match an online request to the minimum-detour suitable taxi."""
        return self._matcher.match(request, self._fleet, now)

    def install(self, result: MatchResult, request: RideRequest, now: float) -> Taxi:
        """Install the plan and register the request in its mobility cluster.

        mT-Share's matcher already planned any probabilistic route, so
        the raw plan application is used directly (no re-planning).
        """
        taxi = self._apply_plan(result, request, now)
        if self._cindex.cluster_of_request(request.request_id) is None:
            self._cindex.add_request(request.request_id, request_vector(self._network, request))
        return taxi

    def on_request_finished(self, request: RideRequest) -> None:
        """Drop the finished request from its mobility cluster."""
        self._cindex.remove_request(request.request_id)

    def on_taxi_breakdown(self, taxi: Taxi, now: float) -> None:
        """Evict the broken taxi from both index views.

        The partition lists would otherwise keep advertising its stale
        future arrivals (``P_z.L_t``) and the cluster index its last
        mobility vector, so a dead taxi could keep winning matches.
        """
        self._pindex.remove_taxi(taxi.taxi_id)
        self._cindex.update_taxi(taxi.taxi_id, None)

    def try_offline(self, taxi: Taxi, request: RideRequest, now: float) -> MatchResult | None:
        """Offline encounter: examine only this taxi's schedule, and lay
        its route out with the partition-filtered router."""
        return self.generic_insertion(taxi, request, now, self._basic_router)

    def index_memory_bytes(self) -> int:
        """Footprint of both index views and the fleet table (Table IV's
        "index size")."""
        return (
            self._pindex.memory_bytes()
            + self._cindex.memory_bytes()
            + self._table.memory_bytes()
        )
