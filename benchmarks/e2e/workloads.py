"""The six benchmark workloads: pure data, importable without ``repro``.

Every size here is the *stated input size* of its workload: the request
count is fixed, the dispatcher consumes the virtual-time arrival
schedule as fast as the host allows (closed loop, one client), and
throughput is ``requests / run_s``.  Sizes follow the sizing rule in
README.md: the ISSUE's 8-18 s timed sections were scaled down (request
and taxi counts together, never a workload dropped) until one child's
timed sections are 2.6-6.8 s, because the driver contract allows ~24 s
per invocation and one invocation needs three children for a median.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``ScenarioSpec.seed`` of every city (network jitter, historical
#: trace, partitioning).  Fixed on purpose: a cold ``city18`` build costs
#: ~30 s, so a city is a dataset (prepared once per checkout, or rebuilt
#: cold on every ``cold-ch`` repeat) and ``--seed`` varies what is drawn
#: *on* it: fleet placement, offline sample, fault plan, soak stream.
CITY_SEED = 1

DEFAULT_SEED = 1

#: ``ScenarioSpec`` keyword sets, by family.
CITY18 = dict(
    grid_rows=18, grid_cols=18, spacing_m=180.0, hourly_requests=3000,
    history_days=4, num_partitions=36,
)
SOAK10 = dict(
    grid_rows=10, grid_cols=10, spacing_m=120.0, hourly_requests=100,
    history_days=1, num_partitions=4,
)
CH40 = dict(
    grid_rows=40, grid_cols=40, spacing_m=180.0, hourly_requests=800,
    history_days=1, num_partitions=36, sp_mode="ch",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: what is built, what runs, and why it exists."""

    name: str
    why: str
    spec: dict = field(hash=False)
    kind: str  # ScenarioSpec.kind: "peak" or "nonpeak"
    scheme: str
    taxis: int
    #: Requests submitted at scale 1 for every seed; run.py checks it.
    requests: int
    offline: int = 0
    payment: bool = True
    window_s: float | None = None
    faults: str | None = None  # "{seed}" is filled with --seed + 6
    rebalance: str | None = None
    stream: bool = False  # replay through DispatchService instead of run()
    cold: bool = False  # empty artifact store on every repeat


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="peak-greedy",
            why="paper headline cell (city18 peak, mt-share): fleet sweep, candidate search "
                "and insertion each take a large share, so a change to any of them shows",
            spec=CITY18, kind="peak", scheme="mt-share", taxis=300,
            requests=3106,
        ),
        Workload(
            name="peak-window",
            why="same city and fleet through window-lap (W=30 s): batched cost matrix + LAP "
                "use the matching kernels in bulk, so a change that helps greedy and hurts "
                "bulk shows",
            spec=CITY18, kind="peak", scheme="window-lap", taxis=300,
            requests=3106, window_s=30.0,
        ),
        Workload(
            name="peak-chaos",
            why="same city and fleet with faults and rebalancing on: only path through "
                "repro.faults, fleet.rebalance and cruise teardown; the census reads every "
                "taxi position each tick",
            spec=CITY18, kind="peak", scheme="mt-share", taxis=300,
            requests=3106,
            faults="seed={seed},breakdown_rate=0.05,cancel_rate=0.05,shock_windows=2",
            rebalance="cadence_s=60,max_moves=16",
        ),
        Workload(
            name="nonpeak-pro",
            why="paper's second contribution (city18 non-peak, mt-share-pro, 1/4 offline): "
                "probabilistic routing, live maybe_cruise, encounter scans, try_offline",
            spec=CITY18, kind="nonpeak", scheme="mt-share-pro", taxis=190,
            requests=1533, offline=375,
        ),
        Workload(
            name="stream-soak",
            why="repro replay shape (no-sharing, JSONL in, decisions out): matching is a small "
                "share, so kernel, fleet sweep, service and codec changes show and matcher "
                "changes must not",
            spec=SOAK10, kind="peak", scheme="no-sharing", taxis=200,
            requests=10000, payment=False, stream=True,
        ),
        Workload(
            name="cold-ch",
            why="first run on a new machine: empty store each repeat (trace generation, CH "
                "build, partitioning) and the only run on the ch backend; fleet sweep is small",
            spec=CH40, kind="peak", scheme="mt-share", taxis=100,
            requests=855, cold=True,
        ),
    )
}

#: Soak stream parameters (``synthetic_requests``).
SOAK_RATE_PER_S = 2.0
SOAK_RHO = 1.5

#: ``--smoke`` divides request and taxi counts by this.
SMOKE_DIVISOR = 20


def scaled(count: int, scale: float) -> int:
    """``count`` at ``scale`` (1.0 = full size), never below 1."""
    return max(1, round(count * scale))
