"""Experiment runner: cached simulation runs for the benchmark harness.

Every figure/table of the paper's evaluation is regenerated from the
same primitive — *run scheme S on scenario X with parameters P* — and
several figures share identical runs (Figs. 6-9 and Table III all come
from the peak fleet sweep).  The runner memoises completed runs by
their full parameter key so each configuration is simulated once per
process no matter how many benchmarks consume it.

Two multi-run facilities sit on top of the primitive:

* a *planning mode* (:func:`collect_keys`) that dry-runs an experiment
  function and records the :class:`RunKey`\\ s it would simulate, and
* a *parallel sweep executor* (:func:`run_many`) that executes a key
  list across spawned worker processes, warming the artifact store in
  the parent first so workers memory-map shared preprocessing instead
  of rebuilding it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, NamedTuple

from .. import artifacts
from ..core.payment import PaymentModel
from ..sim.engine import Simulator
from ..sim.metrics import SimulationMetrics
from ..sim.scenario import (
    ScenarioSpec,
    clear_scenarios,
    get_scenario,
    nonpeak_spec,
    peak_spec,
    scenario_cache_stats,
)

#: Environment variable selecting the default worker count for sweeps.
WORKERS_ENV = "REPRO_WORKERS"


@dataclass(frozen=True, slots=True)
class RunKey:
    """Everything that determines a simulation run's outcome."""

    spec: ScenarioSpec
    scheme: str
    num_taxis: int
    capacity: int = 3
    rho: float = 1.3
    fleet_seed: int = 0
    partition_method: str = "bipartite"
    config_overrides: tuple = ()
    offline_count: int | None = None
    probabilistic: bool = False
    #: ``--rebalance`` spec string for proactive idle-taxi repositioning
    #: (``None``/"off" leaves the run on the pre-rebalancing code path).
    rebalance: str | None = None


_CACHE: dict[RunKey, SimulationMetrics] = {}

#: When not ``None``, :func:`run` records keys here instead of simulating.
_PLANNING: list[RunKey] | None = None


def clear_cache() -> None:
    """Forget all memoised runs *and* cached scenarios (test isolation).

    Clearing only the run cache used to leave built scenarios (and the
    RNG state inside their demand generators) resident, so a test that
    cleared "the cache" could still observe state from earlier tests.
    Both layers go together now.
    """
    _CACHE.clear()
    _WORKER_SNAPSHOTS.clear()
    clear_scenarios()


def planning() -> bool:
    """Whether a :func:`collect_keys` pass is in progress."""
    return _PLANNING is not None


def collect_keys(fn: Callable, *args, **kwargs) -> list[RunKey]:
    """Dry-run ``fn`` and return the unique RunKeys it would simulate.

    While planning, :func:`run` records its key and returns an empty
    :class:`SimulationMetrics` (all-zero metrics are safe for the
    result-shaping code in the experiment functions); already-memoised
    keys are recorded too, so the caller sees the experiment's full
    footprint.
    """
    global _PLANNING
    if _PLANNING is not None:
        raise RuntimeError("collect_keys cannot be nested")
    _PLANNING = []
    try:
        fn(*args, **kwargs)
        return list(dict.fromkeys(_PLANNING))
    finally:
        _PLANNING = None


def run(key: RunKey) -> SimulationMetrics:
    """Execute (or recall) one simulation run."""
    if _PLANNING is not None:
        _PLANNING.append(key)
        return SimulationMetrics()
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    scenario = get_scenario(key.spec)
    config = scenario.default_config(**dict(key.config_overrides))
    scheme = scenario.make_scheme(
        key.scheme,
        config=config,
        partition_method=key.partition_method,
        probabilistic=key.probabilistic,
    )
    requests = scenario.requests(rho=key.rho, offline_count=key.offline_count)
    fleet = scenario.make_fleet(key.num_taxis, capacity=key.capacity, seed=key.fleet_seed)
    metrics = Simulator(
        scheme,
        fleet,
        requests,
        payment=PaymentModel(),
        rebalance=scenario.rebalance_policy(key.rebalance, config),
    ).run()
    _CACHE[key] = metrics
    return metrics


# ----------------------------------------------------------------------
# parallel sweep executor
# ----------------------------------------------------------------------
def default_workers() -> int:
    """Worker count for sweeps: :data:`WORKERS_ENV`, else 1 (sequential).

    Raises ``ValueError`` unless the variable, when set, is a positive
    integer.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def _warm_store(keys: Sequence[RunKey]) -> None:
    """Persist every artifact the keys need before spawning workers.

    Done once in the parent so N workers memory-map one set of stored
    matrices instead of racing to build N copies.  No-op when the
    artifact store is disabled (workers then rebuild independently).
    """
    if artifacts.get_store() is None:
        return
    warmed: set[tuple] = set()
    for key in keys:
        kappa = dict(key.config_overrides).get("num_partitions", key.spec.num_partitions)
        sig = (key.spec, key.partition_method, kappa)
        if sig in warmed:
            continue
        warmed.add(sig)
        scenario = get_scenario(key.spec)
        scenario.partitioning(key.partition_method, kappa)
        scenario.landmark_graph(key.partition_method, kappa)


def _worker_run(key: RunKey) -> tuple[SimulationMetrics, dict]:
    """Pool entry point: one simulation plus the worker's observability."""
    metrics = run(key)
    return metrics, {
        "artifact_store": artifacts.stats(),
        "scenario_cache": scenario_cache_stats(),
    }


#: Observability snapshots reported by sweep workers, merged per sweep.
_WORKER_SNAPSHOTS: list[dict] = []


def run_many(
    keys: Iterable[RunKey],
    workers: int | None = None,
) -> list[SimulationMetrics]:
    """Execute many runs, optionally across spawned worker processes.

    Results come back in input order regardless of completion order,
    and land in the in-process memo cache exactly as sequential
    :func:`run` calls would, so downstream experiment functions recall
    them for free.  ``workers`` defaults to :func:`default_workers`
    (the ``REPRO_WORKERS`` environment variable).

    Workers are spawned (not forked) so each runs the same cold-start
    path on every platform; the parent warms the artifact store first,
    which is what makes the fan-out profitable.
    """
    keys = list(keys)
    if workers is None:
        workers = default_workers()
    todo = list(dict.fromkeys(k for k in keys if k not in _CACHE))
    if workers <= 1 or len(todo) <= 1:
        return [run(key) for key in keys]
    _warm_store(todo)
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(workers, len(todo)), mp_context=ctx) as pool:
        for key, (metrics, snapshot) in zip(
            todo, pool.map(_worker_run, todo, chunksize=1)
        ):
            _CACHE[key] = metrics
            _WORKER_SNAPSHOTS.append(snapshot)
    return [run(key) for key in keys]


def collect_observability() -> dict:
    """Aggregate stage timings and counters across all memoised runs.

    The benchmark harness attaches this to each benchmark's
    ``extra_info`` so the JSON output carries per-stage dispatch
    timings and the lazy-cache hit rate alongside the wall times.
    Stages merge by summing counts/totals and widening min/max;
    counters sum.  Returns ``{"runs": 0}`` when nothing has run yet.
    """
    stages: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    runs = 0
    for metrics in _CACHE.values():
        if not metrics.stages and not metrics.counters:
            continue
        runs += 1
        for name, stat in metrics.stages.items():
            agg = stages.get(name)
            if agg is None:
                stages[name] = dict(stat)
            else:
                agg["count"] += stat["count"]
                agg["total_s"] += stat["total_s"]
                agg["min_s"] = min(agg["min_s"], stat["min_s"])
                agg["max_s"] = max(agg["max_s"], stat["max_s"])
        for name, value in metrics.counters.items():
            counters[name] = counters.get(name, 0) + value
    for agg in stages.values():
        agg["mean_s"] = agg["total_s"] / agg["count"] if agg["count"] else 0.0
    hits = counters.get("spe.cache_hits", 0)
    misses = counters.get("spe.cache_misses", 0)
    out: dict = {"runs": runs, "stages": stages, "counters": counters}
    if hits or misses:
        out["lazy_cache_hit_rate"] = hits / (hits + misses)
    out["scenario_cache"] = scenario_cache_stats()
    out["artifact_store"] = artifacts.stats()
    if _WORKER_SNAPSHOTS:
        out["workers"] = list(_WORKER_SNAPSHOTS)
    return out


# ----------------------------------------------------------------------
# benchmark scale presets
# ----------------------------------------------------------------------
#: Environment variable selecting the benchmark scale.
SCALE_ENV = "REPRO_BENCH_SCALE"


@dataclass(frozen=True, slots=True)
class BenchScale:
    """Benchmark sizing: scenario specs and fleet sweeps."""

    name: str
    peak: ScenarioSpec
    nonpeak: ScenarioSpec
    taxi_counts: tuple[int, ...]
    default_taxis: int


def bench_scale() -> BenchScale:
    """The active benchmark scale (``quick`` unless overridden).

    ``REPRO_BENCH_SCALE=full`` runs the paper-shaped sweeps (six fleet
    sizes, the full default scenario); ``quick`` (default) trims the
    sweep so the whole benchmark suite finishes in a few minutes.
    """
    name = os.environ.get(SCALE_ENV, "quick").lower()
    if name == "full":
        return BenchScale(
            name="full",
            peak=peak_spec(),
            nonpeak=nonpeak_spec(),
            taxi_counts=(50, 100, 150, 200, 250, 300),
            default_taxis=200,
        )
    if name == "quick":
        return BenchScale(
            name="quick",
            peak=peak_spec(),
            nonpeak=nonpeak_spec(),
            taxi_counts=(80, 160),
            default_taxis=160,
        )
    raise ValueError(f"unknown {SCALE_ENV} value {name!r}; use 'quick' or 'full'")


class Experiment(NamedTuple):
    """One registered experiment: ``fn(scale)`` builds its result.

    ``plannable`` says a :func:`collect_keys` pass over ``fn`` simulates
    nothing: every simulation it needs goes through :func:`run`, so the
    pass is free and its keys can fan out over :func:`run_many`.  An
    experiment that drives the :class:`Simulator` itself (to time it, or
    to set an option no :class:`RunKey` carries) is not plannable.
    """

    fn: Callable[[BenchScale], Any]
    plannable: bool
