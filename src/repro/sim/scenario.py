"""Experiment scenarios: the peak and non-peak setups of Section V-A.

The paper carves two windows out of the Chengdu trace:

* **peak** — 8–9 a.m. of a busy workday (29,534 online requests; no
  offline requests, taxis are busy enough);
* **non-peak** — 10–11 a.m. of a weekend (15,480 requests of which
  5,000 are made *offline*, i.e. hidden street hails), where
  probabilistic routing earns its keep.

Everything else in the trace feeds bipartite map partitioning and the
transition probabilities.  This module reproduces that setup at a
configurable scale on the synthetic network/trace substrate, and
provides the scheme factory used by every benchmark.  Scenario
construction is expensive (trace synthesis, all-pairs shortest paths,
partitioning), so built scenarios are memoised per spec in a bounded
memo, and every preprocessing product — the road network itself
included — is persisted in the content-addressed artifact store
(:mod:`repro.artifacts`) so warm processes load it back — memory-mapped
where possible — instead of recomputing: a warm build generates no
network and runs no component search.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from .. import artifacts
from ..baselines import DispatchScheme, NoSharing, PGreedyDP, TShare
from ..config import SystemConfig, require_finite
from ..core.mtshare import MTShare, partition_routers
from ..demand.dataset import TripDataset
from ..demand.generator import ChengduLikeDemand
from ..demand.request import RideRequest
from ..fleet.taxi import Taxi
from ..memo import BoundedMemo
from ..network.generators import grid_city
from ..network.graph import DEFAULT_SPEED_MPS, RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine, resolve_sp_mode
from ..partitioning.bipartite import (
    DEFAULT_TRANSITION_CLUSTERS,
    MapPartitioning,
    bipartite_partition,
    geo_partition,
)
from ..partitioning.grid import grid_partition

#: Built scenarios kept resident by :func:`get_scenario`.
SCENARIO_CACHE_SIZE = 8

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class SchemeInfo:
    """One registered dispatch scheme: key, one-line summary, factory.

    The registry below is the *single* source of scheme names: it
    drives :data:`SCHEME_NAMES`, :meth:`Scenario.make_scheme`, the CLI
    ``--scheme`` choices and the ``repro list`` report.  Adding a
    scheme is one table entry, not four parallel edits.
    """

    key: str
    summary: str
    factory: "Callable[[Scenario, SystemConfig, str], DispatchScheme]"


def _make_no_sharing(
    scenario: "Scenario", config: SystemConfig, partition_method: str
) -> DispatchScheme:
    return NoSharing(scenario.network, scenario.engine, config)


def _make_t_share(
    scenario: "Scenario", config: SystemConfig, partition_method: str
) -> DispatchScheme:
    return TShare(scenario.network, scenario.engine, config)


def _make_pgreedydp(
    scenario: "Scenario", config: SystemConfig, partition_method: str
) -> DispatchScheme:
    return PGreedyDP(scenario.network, scenario.engine, config)


def _make_mtshare(
    scenario: "Scenario",
    config: SystemConfig,
    partition_method: str,
    probabilistic: bool = False,
) -> DispatchScheme:
    part = scenario.partitioning(partition_method, config.num_partitions)
    return MTShare(
        scenario.network,
        scenario.engine,
        config,
        part,
        probabilistic=probabilistic,
        landmarks=scenario.landmark_graph(partition_method, config.num_partitions),
    )


def _make_mtshare_pro(
    scenario: "Scenario", config: SystemConfig, partition_method: str
) -> DispatchScheme:
    return _make_mtshare(scenario, config, partition_method, probabilistic=True)


def _make_window_lap(
    scenario: "Scenario", config: SystemConfig, partition_method: str
) -> DispatchScheme:
    from ..core.window import WindowLAP

    part = scenario.partitioning(partition_method, config.num_partitions)
    return WindowLAP(
        scenario.network,
        scenario.engine,
        config,
        part,
        landmarks=scenario.landmark_graph(partition_method, config.num_partitions),
    )


#: The scheme registry — the one table every scheme surface reads.
SCHEME_REGISTRY: "dict[str, SchemeInfo]" = {
    info.key: info
    for info in (
        SchemeInfo(
            "no-sharing",
            "nearest-idle-taxi dispatch, no ridesharing (lower bound)",
            _make_no_sharing,
        ),
        SchemeInfo(
            "t-share",
            "grid-index insertion baseline with partial trip information",
            _make_t_share,
        ),
        SchemeInfo(
            "pgreedydp",
            "origin-side grid search, global minimum-detour insertion baseline",
            _make_pgreedydp,
        ),
        SchemeInfo(
            "mt-share",
            "mobility-aware matching on partition/cluster indexes (the paper)",
            _make_mtshare,
        ),
        SchemeInfo(
            "mt-share-pro",
            "mT-Share with probabilistic routing towards street hails",
            _make_mtshare_pro,
        ),
        SchemeInfo(
            "window-lap",
            "batch-window global assignment: one LAP per W-second window",
            _make_window_lap,
        ),
    )
}

#: Scheme-name keys accepted by :meth:`Scenario.make_scheme`.
SCHEME_NAMES = tuple(SCHEME_REGISTRY)


def _pack_network(network: RoadNetwork) -> tuple[dict[str, np.ndarray], dict]:
    """The network's coordinates and its ``edges()`` in their order, so
    the loaded network rebuilds the same edge dict, CSR arrays and all."""
    edges, m = network.edges, network.num_edges
    arrays = {
        "xy": network.xy,
        "tails": np.fromiter((u for u, _v, _l in edges()), dtype=np.int64, count=m),
        "heads": np.fromiter((v for _u, v, _l in edges()), dtype=np.int64, count=m),
        "lengths": np.fromiter((length for *_, length in edges()), dtype=np.float64, count=m),
    }
    return arrays, {"vertices": network.num_vertices, "edges": m}


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Everything that determines a scenario, hashable for memoisation.

    The default sizes scale the paper's setup down by roughly 1/30 in
    request volume while preserving the request-per-taxi ratios that
    drive the comparative results (see DESIGN.md).
    """

    kind: str = "peak"  # "peak" or "nonpeak"
    grid_rows: int = 18
    grid_cols: int = 18
    spacing_m: float = 180.0
    hourly_requests: int = 1100
    history_days: int = 5
    offline_count: int = 190
    num_partitions: int = 36
    congestion: float = 1.0
    seed: int = 7
    #: Shortest-path backend: ``"auto"`` (default; resolved by the
    #: vertex-count rule at build time to ``"full"`` or ``"lazy"``),
    #: ``"full"`` or ``"lazy"``.  Not part of the network spec, so both
    #: backends share network/trace/partition artifacts.
    sp_mode: str = "auto"

    def __post_init__(self) -> None:
        require_finite(self)
        if self.kind not in ("peak", "nonpeak"):
            raise ValueError("kind must be 'peak' or 'nonpeak'")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        if self.congestion <= 0:
            raise ValueError("congestion must be a positive speed factor")
        if self.sp_mode == "ch":
            # Spelling of the removed hierarchy backend, kept only for
            # benchmarks/e2e/workloads.py::CH40; goes when ROADMAP item 1
            # re-points cold-ch.
            object.__setattr__(self, "sp_mode", "lazy")
        if self.sp_mode not in ("auto", "full", "lazy"):
            raise ValueError("sp_mode must be auto, full or lazy")

    @property
    def window(self) -> tuple[int, int, bool]:
        """``(day, hour, weekend)`` of the evaluation window."""
        if self.kind == "peak":
            return (1, 8, False)  # workday, 8-9 a.m.
        return (5, 10, True)  # weekend, 10-11 a.m.


class Scenario:
    """A fully built experiment scenario.

    Attributes of interest: :attr:`network`, :attr:`engine`,
    :attr:`history` (the mined trips), :attr:`window_trips` (the
    evaluation hour), and the factories below.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        # The network spec keys every stored artifact, the network's own
        # included.  Speed (and hence the congestion factor) is
        # deliberately left out: distances are in metres and trip
        # sampling is geometric, so congestion variants of the same grid
        # share every speed-independent artifact.
        self._network_spec = {
            "generator": "grid_city",
            "rows": spec.grid_rows,
            "cols": spec.grid_cols,
            "spacing_m": spec.spacing_m,
            "seed": spec.seed,
        }
        # The congestion factor rescales the constant travel speed for
        # the simulated window (traffic stays stable *within* a window,
        # as the paper assumes).
        speed_mps = DEFAULT_SPEED_MPS * spec.congestion
        self.network: RoadNetwork = self._stored(
            "network",
            self._network_spec,
            build=lambda: grid_city(
                rows=spec.grid_rows,
                cols=spec.grid_cols,
                spacing_m=spec.spacing_m,
                speed_mps=speed_mps,
                seed=spec.seed,
            ),
            pack=_pack_network,
            unpack=lambda art: RoadNetwork(
                np.array(art["xy"], dtype=np.float64),
                np.column_stack((art["tails"], art["heads"], art["lengths"])),
                speed_mps=speed_mps,
            ),
        )
        self.engine = self._build_engine()
        self.demand = ChengduLikeDemand(
            self.network,
            hourly_requests=spec.hourly_requests,
            seed=spec.seed,
        )
        day, hour, weekend = spec.window
        window_start = (day * 24 + hour) * 3600.0
        window_end = window_start + 3600.0

        # The evaluation window is generated with its own profile; the
        # remaining days feed the mining side, window excluded.  Enough
        # days are generated to cover both mining and the window day.
        num_days = max(spec.history_days + 2, day + 1)
        self._trace_spec = {
            "network": self._network_spec,
            "demand": self.demand.spec_dict(),
            "num_days": num_days,
            "weekend_days": [5, 6],
            # Traces are drawn at the profile's own rate; the key stays
            # so stores written with it keep serving.
            "rate_scale": 1.0,
        }
        full = self._build_trace(num_days)
        self.window_trips: TripDataset = full.window(window_start, window_end)
        self.history: TripDataset = full.exclude_window(window_start, window_end)
        self._window_start = window_start
        self._window_end = window_end
        self._partitionings: dict[tuple, object] = {}

    def _stored(
        self,
        kind: str,
        spec: Mapping,
        build: Callable[[], T],
        pack: Callable[[T], tuple[Mapping[str, np.ndarray], Mapping]],
        unpack: Callable[[Any], T],
    ) -> T:
        """Load one preprocessing product from the artifact store, or
        build it and save it there.

        ``spec`` keys the artifact; ``pack`` turns a freshly built
        product into ``(arrays, meta)`` and ``unpack`` turns a loaded
        :class:`~repro.artifacts.store.Artifact` back into the product.
        With the store disabled this is just ``build()``.  A saved
        artifact's meta carries ``build_s``, the wall seconds ``build()``
        took, which ``repro cache info`` totals per kind.  The process's
        first scipy import is paid before the clock starts, so no kind's
        ``build_s`` carries it.
        """
        store = artifacts.get_store()
        if store is None:
            return build()
        key = store.key_of(kind, spec)
        art = store.load(kind, key)
        if art is not None:
            return unpack(art)
        import scipy.sparse.csgraph  # noqa: F401 - a cold build's scipy caller would pay it
        t0 = time.perf_counter()  # repro-lint: disable=REP003 reason=build_s artifact metadata only, never a decision input
        product = build()
        build_s = time.perf_counter() - t0  # repro-lint: disable=REP003 reason=build_s artifact metadata only, never a decision input
        arrays, meta = pack(product)
        store.save(kind, key, arrays, meta={**meta, "build_s": round(build_s, 3)})
        return product

    def _build_engine(self) -> ShortestPathEngine:
        """Shortest-path engine, loading preprocessing from the store.

        The spec's ``sp_mode`` is resolved first (``"auto"`` picks
        ``full`` for small grids and ``lazy`` above ``FULL_APSP_LIMIT``).
        Only full mode stores anything: it persists/loads the APSP
        matrices, memory-mapped on a warm store (zero-copy: pages are
        shared between concurrent workers by the OS cache) instead of
        being recomputed.  ``lazy`` stores nothing.
        """
        network = self.network
        mode = resolve_sp_mode(self.spec.sp_mode, network.num_vertices)
        if mode == "full":

            def pack_apsp(engine: ShortestPathEngine):
                dist, pred = engine.full_matrices()
                return {"dist": dist, "pred": pred}, self._network_spec

            return self._stored(
                "apsp",
                self._network_spec,
                build=lambda: ShortestPathEngine(network, mode="full"),
                pack=pack_apsp,
                unpack=lambda art: ShortestPathEngine(
                    network, mode="full", full_arrays=(art["dist"], art["pred"])
                ),
            )
        return ShortestPathEngine(network, mode=mode)

    def _build_trace(self, num_days: int) -> TripDataset:
        """The full synthetic trace, persisted across processes.

        Trace synthesis dominates scenario construction, so warm
        processes load the dataset from the store and *replay* the
        generator's RNG consumption (see
        :meth:`~repro.demand.generator.ChengduLikeDemand.replay_days_rng`)
        so any later sampling stays bit-identical to a cold build.
        """
        def unpack(art) -> TripDataset:
            full = TripDataset(
                release_times=np.asarray(art["release_times"], dtype=np.float64).copy(),
                origins=np.asarray(art["origins"], dtype=np.int64).copy(),
                destinations=np.asarray(art["destinations"], dtype=np.int64).copy(),
                taxi_ids=np.asarray(art["taxi_ids"], dtype=np.int64).copy(),
            )
            self.demand.replay_days_rng(num_days, len(full))
            return full

        return self._stored(
            "trace",
            self._trace_spec,
            build=lambda: self.demand.generate_days(num_days, weekend_days={5, 6}),
            pack=lambda full: (
                {
                    "release_times": full.release_times,
                    "origins": full.origins,
                    "destinations": full.destinations,
                    "taxi_ids": full.taxi_ids,
                },
                {"num_days": num_days, "rows": len(full)},
            ),
            unpack=unpack,
        )

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"peak"`` or ``"nonpeak"``."""
        return self.spec.kind

    def memory_bytes(self) -> int:
        """Approximate resident footprint of this scenario's artifacts.

        Covers the shortest-path matrices (including memory-mapped
        ones), the trace arrays, and every memoised partitioning /
        landmark-graph / predictor product.
        """
        total = self.engine.memory_bytes()
        for ds in (self.window_trips, self.history):
            total += (
                ds.release_times.nbytes
                + ds.origins.nbytes
                + ds.destinations.nbytes
                + ds.taxi_ids.nbytes
            )
        for obj in self._partitionings.values():
            fn = getattr(obj, "memory_bytes", None)
            if callable(fn):
                total += int(fn())
        return total

    def mmap_bytes(self) -> int:
        """Bytes served zero-copy from memory-mapped store artifacts."""
        return self.engine.mmap_bytes()

    def default_config(self, **overrides) -> SystemConfig:
        """The paper's defaults adapted to this scenario's scale.

        The static searching range ``gamma`` is scaled with the city
        width (2.5 km on Chengdu's ~9.4 km-wide 2nd-ring area maps to
        about 1.25 km here); mT-Share itself derives its range from
        Eq. 2 unless an experiment overrides that.
        """
        width = float(
            max(self.network.xy[:, 0].max() - self.network.xy[:, 0].min(), 1.0)
        )
        base = SystemConfig(
            num_partitions=self.spec.num_partitions,
            search_range_m=round(2500.0 * width / 9400.0, 0),
        )
        return base.replace(**overrides) if overrides else base

    def requests(
        self,
        rho: float = 1.3,
        offline_count: int | None = None,
        seed: int = 0,
    ) -> list[RideRequest]:
        """The evaluation workload.

        ``offline_count`` defaults to the spec's value in the non-peak
        scenario and to 0 in the peak scenario (the paper ignores
        offline requests at peak).
        """
        if offline_count is None:
            offline_count = self.spec.offline_count if self.kind == "nonpeak" else 0
        offline_count = min(offline_count, len(self.window_trips))
        return self.window_trips.to_requests(
            self.engine,
            rho=rho,
            offline_count=offline_count,
            time_origin=self._window_start,
            seed=seed,
        )

    def make_fleet(
        self,
        num_taxis: int,
        capacity: int = 3,
        seed: int = 0,
    ) -> list[Taxi]:
        """Taxis parked at uniformly random vertices (Section V-A4)."""
        if num_taxis < 1:
            raise ValueError("num_taxis must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        rng = np.random.default_rng(seed)
        locs = rng.integers(0, self.network.num_vertices, size=num_taxis)
        return [
            Taxi(taxi_id=i, capacity=capacity, loc=int(locs[i])) for i in range(num_taxis)
        ]

    def fault_plan(
        self,
        spec,
        taxis: list[Taxi],
        requests: list[RideRequest],
    ):
        """A deterministic :class:`~repro.faults.plan.FaultPlan` for one run.

        ``spec`` is a :class:`~repro.faults.plan.FaultSpec`, a spec
        string in the ``--faults`` grammar (``seed=3,breakdown_rate=...``,
        see docs/ROBUSTNESS.md) or ``None``.  Returns ``None`` when the
        spec injects nothing, so callers can pass the result straight to
        :class:`~repro.sim.engine.Simulator`.
        """
        from ..faults.plan import FaultSpec, build_fault_plan, parse_fault_spec

        if spec is None:
            return None
        if isinstance(spec, str):
            spec = parse_fault_spec(spec)
        if not isinstance(spec, FaultSpec):
            raise TypeError(f"expected FaultSpec, spec string or None, got {type(spec)!r}")
        if not spec.enabled:
            return None
        return build_fault_plan(spec, taxis, requests, self.network)

    def rebalance_policy(self, spec, config: SystemConfig | None = None):
        """A :class:`~repro.fleet.rebalance.Rebalancer` for one run.

        ``spec`` is a :class:`~repro.fleet.rebalance.RebalanceSpec`, a
        spec string in the ``--rebalance`` grammar
        (``cadence_s=120,max_moves=8``, or ``"on"``/``"off"``; see
        docs/ALGORITHMS.md) or ``None``.  Returns ``None`` when the
        policy would never move a taxi, so callers can pass the result
        straight to :class:`~repro.sim.engine.Simulator` and a
        rebalancing-off run stays on the pre-rebalancing code path.
        """
        from ..fleet.rebalance import RebalanceSpec, Rebalancer, parse_rebalance_spec

        if spec is None:
            return None
        if isinstance(spec, str):
            spec = parse_rebalance_spec(spec)
        if not isinstance(spec, RebalanceSpec):
            raise TypeError(
                f"expected RebalanceSpec, spec string or None, got {type(spec)!r}"
            )
        if not spec.enabled:
            return None
        config = config if config is not None else self.default_config()
        part = self.partitioning("bipartite", config.num_partitions)
        landmarks = self.landmark_graph("bipartite", config.num_partitions)
        return Rebalancer(
            spec,
            predictor=self.demand_predictor(part),
            landmarks=landmarks,
            engine=self.engine,
            network=self.network,
        )

    def _partition_spec(self, method: str, kappa: int, k_t: int) -> dict:
        """Artifact-store key spec for a partitioning build."""
        pspec = {
            "trace": self._trace_spec,
            "window": [self._window_start, self._window_end],
            "method": method,
            "num_partitions": kappa,
            "seed": self.spec.seed,
        }
        if method == "bipartite":
            pspec["num_transition_clusters"] = k_t
        return pspec

    def partitioning(
        self,
        method: str = "bipartite",
        num_partitions: int | None = None,
    ) -> MapPartitioning:
        """Build (and memoise) a map partitioning over this network.

        Labels and the fitted transition model are persisted in the
        artifact store; warm processes skip the bipartite fixed-point
        iteration (and its k-means sweeps) entirely.
        """
        kappa = num_partitions if num_partitions is not None else self.spec.num_partitions
        key = (method, kappa)
        cached = self._partitionings.get(key)
        if cached is not None:
            return cached
        k_t = min(DEFAULT_TRANSITION_CLUSTERS, max(2, kappa - 1))

        def build() -> MapPartitioning:
            trips = self.history.od_pairs()
            if method == "bipartite":
                return bipartite_partition(
                    self.network,
                    trips,
                    num_partitions=kappa,
                    num_transition_clusters=k_t,
                    seed=self.spec.seed,
                )
            if method == "grid":
                return grid_partition(self.network, kappa, historical_trips=trips)
            if method == "geo":
                return geo_partition(
                    self.network, kappa, historical_trips=trips, seed=self.spec.seed
                )
            raise ValueError(f"unknown partitioning method {method!r}")

        part = self._stored(
            "partition",
            self._partition_spec(method, kappa, k_t),
            build=build,
            pack=MapPartitioning.to_arrays,
            unpack=lambda art: MapPartitioning.from_arrays(art.arrays, art.meta),
        )
        self._partitionings[key] = part
        return part

    def landmark_graph(
        self,
        method: str = "bipartite",
        num_partitions: int | None = None,
    ) -> LandmarkGraph:
        """Landmark graph over a memoised partitioning, store-backed.

        Keyed by the *content* of the partition labels (plus travel
        speed — landmark costs are in seconds), so any route to the
        same partitioning shares one stored landmark table set.
        """
        kappa = num_partitions if num_partitions is not None else self.spec.num_partitions
        mkey = ("landmarks", method, kappa)
        cached = self._partitionings.get(mkey)
        if cached is not None:
            return cached
        part = self.partitioning(method, kappa)
        meta = {"speed_mps": self.network.speed_mps, "engine_mode": self.engine.mode}
        graph = self._stored(
            "landmarks",
            {
                "network": self._network_spec,
                "labels_sha": hashlib.sha256(part.labels.tobytes()).hexdigest(),
                **meta,
            },
            build=lambda: LandmarkGraph(self.network, part.partitions, self.engine),
            pack=lambda graph: (graph.to_tables(), meta),
            unpack=lambda art: LandmarkGraph.from_tables(
                self.network, part.partitions, art.arrays
            ),
        )
        self._partitionings[mkey] = graph
        return graph

    def _probabilistic_router(self, config: SystemConfig):
        """A ProbabilisticRouter over this scenario's bipartite partitions."""
        part = self.partitioning("bipartite", config.num_partitions)
        landmarks = self.landmark_graph("bipartite", config.num_partitions)
        _pfilter, router = partition_routers(
            self.network, self.engine, landmarks, config, part.transition_model
        )
        return router

    def demand_predictor(self, partitioning: MapPartitioning):
        """An hour-aware pick-up predictor fitted on this scenario's history."""
        from ..demand.prediction import DemandPredictor

        key = ("predictor", partitioning.num_partitions)
        cached = self._partitionings.get(key)
        if cached is not None:
            return cached
        predictor = self._stored(
            "predictor",
            {
                "trace": self._trace_spec,
                "window": [self._window_start, self._window_end],
                "labels_sha": hashlib.sha256(partitioning.labels.tobytes()).hexdigest(),
                "num_partitions": partitioning.num_partitions,
            },
            build=lambda: DemandPredictor.fit(
                self.history, partitioning.labels, partitioning.num_partitions
            ),
            pack=lambda predictor: ({"rates": predictor.rates}, {}),
            unpack=lambda art: DemandPredictor(
                np.asarray(art["rates"], dtype=np.float64).copy()
            ),
        )
        self._partitionings[key] = predictor
        return predictor

    def make_scheme(
        self,
        name: str,
        config: SystemConfig | None = None,
        partition_method: str = "bipartite",
        probabilistic: bool = False,
    ) -> DispatchScheme:
        """Instantiate a dispatch scheme by its report name.

        ``probabilistic=True`` attaches probabilistic routing to a
        baseline scheme (the Fig. 16 combinations); for mT-Share use
        the ``"mt-share-pro"`` name instead.
        """
        config = config if config is not None else self.default_config()
        info = SCHEME_REGISTRY.get(name.lower())
        if info is None:
            raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
        scheme = info.factory(self, config, partition_method)
        if probabilistic and not isinstance(scheme, MTShare):
            scheme.enable_probabilistic(self._probabilistic_router(config))
            scheme.name = f"{scheme.name}+prob"
        return scheme


# ----------------------------------------------------------------------
# Bounded scenario memo
# ----------------------------------------------------------------------
_SCENARIOS: BoundedMemo[ScenarioSpec, Scenario] = BoundedMemo(SCENARIO_CACHE_SIZE)


def get_scenario(spec: ScenarioSpec) -> Scenario:
    """Memoised scenario builder (trace + APSP + partitioning are expensive).

    LRU-bounded at :data:`SCENARIO_CACHE_SIZE` entries so long sweeps
    cannot accumulate unbounded resident matrices.
    """
    scenario = _SCENARIOS.lookup(spec)
    if scenario is None:
        scenario = _SCENARIOS.store(spec, Scenario(spec))
    return scenario


def clear_scenarios() -> None:
    """Drop every memoised scenario (their artifacts become collectable)."""
    _SCENARIOS.clear()


def scenario_cache_stats() -> dict[str, int]:
    """The scenario memo's tallies plus resident/mmap byte gauges."""
    out = _SCENARIOS.stats()
    out["memory_bytes"] = sum(s.memory_bytes() for s in _SCENARIOS.values())
    out["mmap_bytes"] = sum(s.mmap_bytes() for s in _SCENARIOS.values())
    return out


def peak_spec(**overrides) -> ScenarioSpec:
    """The default peak-scenario spec, optionally overridden."""
    return ScenarioSpec(kind="peak", **overrides)


def nonpeak_spec(**overrides) -> ScenarioSpec:
    """The default non-peak-scenario spec, optionally overridden."""
    return ScenarioSpec(kind="nonpeak", **overrides)
