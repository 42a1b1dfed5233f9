"""Deterministic fault plans: breakdowns, cancellations, travel shocks.

The simulator's fault-injection layer is *plan driven*: every disruption
of a run is drawn up front from one seeded RNG into an immutable
:class:`FaultPlan`, and the simulator merely replays that plan at event
boundaries.  This is what makes chaos runs reproducible — the same
scenario plus the same fault seed yields the same disruptions, the same
recovery decisions and the same metrics, which ``tests/test_faults.py``
asserts (see docs/ROBUSTNESS.md).

Three fault families are modelled:

* **Taxi breakdowns** — a taxi is taken out of service mid-route at a
  drawn instant; the recovery policy in :mod:`repro.sim.engine` salvages
  its schedule (Section IV-C2's "the server will quickly dispatch
  another taxi" applied to the failure case).
* **Passenger cancellations** — a request is withdrawn after release but
  before pick-up; assigned taxis shed the matching stops and replan.
* **Zonal travel-time shocks** — inside a disc-shaped zone and a time
  window, taxis lose ``delay_s`` seconds off their remaining route, once
  per window (a coarse congestion-shock model; the constant-speed
  assumption of the paper holds outside shock windows).

The CLI grammar (``--faults seed=3,breakdown_rate=0.05,...``) is parsed
by :func:`parse_fault_spec`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import parse_spec, require_finite
from ..demand.request import RideRequest
from ..fleet.taxi import Taxi
from ..network.graph import RoadNetwork

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "RequestCancellation",
    "ShockWindow",
    "TaxiBreakdown",
    "build_fault_plan",
    "parse_fault_spec",
]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Everything that determines a fault plan, hashable and seedable.

    Attributes
    ----------
    seed:
        RNG seed for every draw of the plan; two plans built from the
        same spec over the same fleet/workload are identical.
    breakdown_rate:
        Probability that a given taxi breaks down during the run.
    cancel_rate:
        Probability that a given request is cancelled pre-pickup.
    shock_windows:
        Number of zonal travel-time shock windows.
    shock_delay_s:
        Delay added to a taxi's remaining route when a shock hits it.
    shock_duration_s:
        Length of each shock window in seconds.
    shock_radius_frac:
        Shock-zone radius as a fraction of the network's larger extent.
    continuation_rho:
        Flexible factor of continuation requests (Eq. 9 applied to the
        salvaged leg from the breakdown vertex).
    continuation_wait_s:
        Extra waiting budget granted to a continuation request on top of
        ``rho``; stranded passengers are given time to be re-collected.
    """

    seed: int = 0
    breakdown_rate: float = 0.0
    cancel_rate: float = 0.0
    shock_windows: int = 0
    shock_delay_s: float = 180.0
    shock_duration_s: float = 900.0
    shock_radius_frac: float = 0.3
    continuation_rho: float = 1.5
    continuation_wait_s: float = 600.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.breakdown_rate <= 1.0:
            raise ValueError("breakdown_rate must be a probability in [0, 1]")
        if not 0.0 <= self.cancel_rate <= 1.0:
            raise ValueError("cancel_rate must be a probability in [0, 1]")
        if self.shock_windows < 0:
            raise ValueError("shock_windows must be non-negative")
        if self.shock_delay_s < 0 or self.shock_duration_s < 0:
            raise ValueError("shock delay/duration must be non-negative")
        if self.shock_radius_frac < 0:
            raise ValueError("shock_radius_frac must be non-negative")
        if self.continuation_rho < 1.0:
            raise ValueError("continuation_rho must be >= 1 (Eq. 9)")
        if self.continuation_wait_s < 0:
            raise ValueError("continuation_wait_s must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this spec can produce any fault at all."""
        return (
            self.breakdown_rate > 0.0
            or self.cancel_rate > 0.0
            or self.shock_windows > 0
        )


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the ``--faults`` grammar: ``key=value[,key=value...]``.

    Recognised keys are exactly the :class:`FaultSpec` fields, e.g.
    ``"seed=3,breakdown_rate=0.05,cancel_rate=0.1,shock_windows=1"``.
    An empty string yields the all-off default spec.
    """
    return parse_spec(FaultSpec, text)


# ----------------------------------------------------------------------
# fault events
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TaxiBreakdown:
    """Taxi ``taxi_id`` goes out of service at ``time``."""

    time: float
    taxi_id: int


@dataclass(frozen=True, slots=True)
class RequestCancellation:
    """Request ``request_id`` is withdrawn at ``time`` (pre-pickup only).

    The event is a no-op if the passengers are already aboard (or the
    request already failed) when the simulator replays it.
    """

    time: float
    request_id: int


@dataclass(frozen=True, slots=True)
class ShockWindow:
    """A zonal travel-time shock: the disc at ``(cx, cy)`` of radius
    ``radius_m`` during ``[start, end)`` delays each affected taxi's
    remaining route once by ``delay_s``."""

    start: float
    end: float
    cx: float
    cy: float
    radius_m: float
    delay_s: float


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable, fully materialised disruption schedule.

    Event tuples are sorted by time (ties broken by id) so the
    simulator replays them with simple cursors; the plan carries its
    spec so recovery parameters (continuation deadlines) travel with it.
    """

    spec: FaultSpec
    breakdowns: tuple[TaxiBreakdown, ...] = ()
    cancellations: tuple[RequestCancellation, ...] = ()
    shocks: tuple[ShockWindow, ...] = ()

    @property
    def empty(self) -> bool:
        """Whether the plan holds no event at all."""
        return not (self.breakdowns or self.cancellations or self.shocks)

    @property
    def num_events(self) -> int:
        """Total scheduled disruptions."""
        return len(self.breakdowns) + len(self.cancellations) + len(self.shocks)

    def fingerprint(self) -> tuple:
        """A hashable digest of every scheduled event (for tests/CI)."""
        return (
            tuple((e.time, e.taxi_id) for e in self.breakdowns),
            tuple((e.time, e.request_id) for e in self.cancellations),
            tuple(
                (w.start, w.end, w.cx, w.cy, w.radius_m, w.delay_s)
                for w in self.shocks
            ),
        )


def build_fault_plan(
    spec: FaultSpec,
    taxis: Sequence[Taxi],
    requests: Sequence[RideRequest],
    network: RoadNetwork,
) -> FaultPlan:
    """Draw a :class:`FaultPlan` for one run from ``spec.seed``.

    Draw order is fixed — breakdowns over taxis sorted by id, then
    cancellations over requests sorted by ``(release_time, id)``, then
    shock windows — so the plan is a pure function of
    ``(spec, fleet ids, workload, network)``.
    """
    rng = np.random.default_rng(spec.seed)
    ordered = sorted(requests, key=lambda r: (r.release_time, r.request_id))
    if ordered:
        t_lo = ordered[0].release_time
        t_hi = max(r.release_time for r in ordered)
    else:
        t_lo = t_hi = 0.0
    span = max(t_hi - t_lo, 1.0)

    breakdowns: list[TaxiBreakdown] = []
    for taxi in sorted(taxis, key=lambda t: t.taxi_id):
        if rng.random() < spec.breakdown_rate:
            breakdowns.append(
                TaxiBreakdown(time=t_lo + rng.random() * span, taxi_id=taxi.taxi_id)
            )

    cancellations: list[RequestCancellation] = []
    for request in ordered:
        if rng.random() < spec.cancel_rate:
            # Strictly after release (the dispatcher has seen it) and
            # inside the waiting window, where a pre-pickup withdrawal
            # is physically possible.
            frac = 0.05 + 0.9 * rng.random()
            delta = max(frac * max(request.max_wait, 0.0), 1e-6)
            cancellations.append(
                RequestCancellation(
                    time=request.release_time + delta, request_id=request.request_id
                )
            )

    xy = network.xy
    extent = float(
        max(
            xy[:, 0].max() - xy[:, 0].min(),
            xy[:, 1].max() - xy[:, 1].min(),
            1.0,
        )
    )
    shocks: list[ShockWindow] = []
    for _ in range(spec.shock_windows):
        center = int(rng.integers(0, network.num_vertices))
        cx, cy = (float(c) for c in xy[center])
        start = t_lo + rng.random() * span
        shocks.append(
            ShockWindow(
                start=start,
                end=start + spec.shock_duration_s,
                cx=cx,
                cy=cy,
                radius_m=spec.shock_radius_frac * extent,
                delay_s=spec.shock_delay_s,
            )
        )

    return FaultPlan(
        spec=spec,
        breakdowns=tuple(sorted(breakdowns, key=lambda e: (e.time, e.taxi_id))),
        cancellations=tuple(
            sorted(cancellations, key=lambda e: (e.time, e.request_id))
        ),
        shocks=tuple(sorted(shocks, key=lambda w: (w.start, w.cx, w.cy))),
    )
