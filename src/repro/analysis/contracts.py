"""Runtime invariant contracts for the simulation core.

The paper's correctness conditions — Algorithm 1's schedule feasibility
(each pick-up precedes its drop-off, capacity never exceeded), the
event clock's monotonicity, and the request-accounting identity behind
every service-rate figure — are cheap to state and expensive to debug
when silently violated.  This module states them as *contracts*: check
functions guarded by one module-level flag.

Enablement
----------
Contracts are **off** by default and the guard is a single attribute
load + branch, so production runs pay effectively nothing (the obs
overhead test bounds the whole layer at <= 5% of wall time).  They are
on when:

* the environment variable ``REPRO_CONTRACTS`` is set to anything but
  ``0``/``false``/``off``/empty when :mod:`repro.analysis.contracts` is
  first imported, or
* :func:`enable` is called (the test suite does this in a session
  fixture, so every tier-1 run exercises the invariants).

A violated contract raises :class:`ContractViolation` (an
``AssertionError`` subclass: genuine programming errors, not user
input errors).

Usage::

    from repro.analysis import contracts

    contracts.check_schedule(stops, taxi.occupancy, taxi.capacity)
    contracts.check_monotone_clock(previous_now, now)
    contracts.check_request_accounting(metrics)
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Collection, Mapping, Sequence
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.mobility_cluster import MobilityClusterIndex
    from ..faults.plan import ShockWindow
    from ..fleet.table import FleetTable
    from ..fleet.schedule import Stop
    from ..fleet.taxi import Taxi
    from ..index.partition_index import PartitionTaxiIndex
    from ..sim.metrics import SimulationMetrics

ENV_VAR = "REPRO_CONTRACTS"

_F = TypeVar("_F", bound=Callable[..., None])


class ContractViolation(AssertionError):
    """A runtime invariant of the simulation core does not hold."""


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "off")


_ENABLED: bool = _env_enabled()


def enabled() -> bool:
    """Whether contract checks currently execute."""
    return _ENABLED


def enable(on: bool = True) -> None:
    """Force contracts on (or off), overriding the environment."""
    global _ENABLED
    _ENABLED = on


def invariant(description: str) -> Callable[[_F], _F]:
    """Mark a function as a contract check, compiled out when disabled.

    The wrapper returns immediately unless contracts are enabled, so a
    disabled check costs one call + one branch.  ``description`` is
    attached as ``contract_description`` for introspection/reporting.
    """

    def decorate(fn: _F) -> _F:
        def wrapper(*args: object, **kwargs: object) -> None:
            if not _ENABLED:
                return
            fn(*args, **kwargs)

        wrapper.contract_description = description  # type: ignore[attr-defined]
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper  # type: ignore[return-value]

    return decorate


# ----------------------------------------------------------------------
# the contracts
# ----------------------------------------------------------------------
@invariant("each pick-up precedes its drop-off and capacity is never exceeded")
def check_schedule(stops: "Sequence[Stop]", occupancy: int, capacity: int) -> None:
    """Algorithm 1 feasibility of an installed schedule.

    ``occupancy`` is the number of passengers already on board when the
    schedule starts (their drop-offs appear without pick-ups).
    """
    from ..fleet.schedule import StopKind

    picked: set[int] = set()
    onboard = occupancy
    for idx, stop in enumerate(stops):
        rid = stop.request.request_id
        if stop.kind is StopKind.PICKUP:
            if rid in picked:
                raise ContractViolation(f"request {rid} picked up twice in one schedule")
            picked.add(rid)
        elif rid not in picked and any(
            s.kind is StopKind.PICKUP and s.request.request_id == rid
            for s in stops[idx + 1:]
        ):
            raise ContractViolation(
                f"request {rid} is dropped off before its pick-up (stop {idx})"
            )
        onboard += stop.passenger_delta
        if onboard > capacity:
            raise ContractViolation(
                f"capacity exceeded after stop {idx}: {onboard} > {capacity}"
            )
        if onboard < 0:
            raise ContractViolation(
                f"negative occupancy after stop {idx}: taxi drops off "
                "passengers it never carried"
            )


@invariant("the simulation clock never moves backwards")
def check_monotone_clock(previous: float, now: float) -> None:
    """Event times must be non-decreasing across the whole run."""
    if now < previous:
        raise ContractViolation(
            f"simulation clock moved backwards: {previous} -> {now}"
        )


@invariant("every request ends in exactly one accounting bucket")
def check_request_accounting(metrics: "SimulationMetrics") -> None:
    """The request balance of :meth:`SimulationMetrics.check_balance`.

    ``check_balance`` stays an unconditional end-of-run assertion; this
    contract makes the same identity checkable *mid-run* as an upper
    bound (no bucket may overshoot its population while requests are
    still in flight).  The fault buckets — cancellations and strandings
    move a request out of its served bucket, never into a second one —
    are part of the identity, so it holds under injected churn too
    (docs/ROBUSTNESS.md).
    """
    online, offline = metrics.accounted_online, metrics.accounted_offline
    if online > metrics.num_online or offline > metrics.num_offline:
        raise ContractViolation(
            "request accounting overshoots its population: "
            f"online {online}/{metrics.num_online}, "
            f"offline {offline}/{metrics.num_offline}"
        )


@invariant("every taxi that can act at a boundary is in the due index at or before its time")
def check_due_index(
    taxis: "Sequence[Taxi]",
    due_time: "Callable[[Taxi], float]",
    index: "Sequence[tuple[float, int]]",
) -> None:
    """Coverage of the simulator's due index (``Simulator._advance_all``).

    ``index`` holds ``(due, fleet order)`` entries and ``due_time(taxi)``
    is when the taxi can next act (``inf``: never).  Checked after every
    sweep, which pops every entry at or before the boundary, coverage
    means no in-service taxi is left with a route vertex due except one
    whose plan was installed during that sweep (cursor still 0, entry
    pushed for the next boundary) — so a plan-change site that forgets
    to re-key its taxi fails here, on the next boundary of any
    simulation, instead of silently parking the taxi.  O(fleet), which
    is why it is a contract and not part of the sweep.
    """
    earliest: dict[int, float] = {}
    for due, order in index:
        if due < earliest.get(order, math.inf):
            earliest[order] = due
    for order, taxi in enumerate(taxis):
        due = due_time(taxi)
        if earliest.get(order, math.inf) > due:
            raise ContractViolation(
                f"taxi {taxi.taxi_id} can act at t={due} but its earliest due-index "
                f"entry is {earliest.get(order)}: a plan change was not re-keyed"
            )


@invariant("a shock pass that skipped a taxi skipped one it would not have shocked")
def check_shock_scan(
    taxis: "Sequence[Taxi]",
    scanned: "Collection[int]",
    k: int,
    window: "ShockWindow",
    xy: "Sequence[Sequence[float]]",
    shocked: "Collection[tuple[int, int]]",
) -> None:
    """Completeness of an incremental shock pass (``Simulator._apply_shock``).

    ``scanned`` holds the fleet orders the pass examined for window
    ``k``; ``shocked`` the ``(window, taxi id)`` pairs delayed so far.
    Every other in-service taxi inside the disc with a remaining route
    must already have been shocked in window ``k`` — otherwise a change
    to its position or route reached the taxi without a ``_rekey`` and
    the pass never saw it.  O(fleet), which is why it is a contract and
    not part of the pass.
    """
    if window.delay_s <= 0.0:
        return  # nobody is ever shocked
    scanned = set(scanned)
    r2 = window.radius_m * window.radius_m
    for order, taxi in enumerate(taxis):
        if order in scanned or taxi.out_of_service or taxi.next_due == math.inf:
            continue
        x, y = xy[taxi.loc]
        dx = float(x) - window.cx
        dy = float(y) - window.cy
        if dx * dx + dy * dy <= r2 and (k, taxi.taxi_id) not in shocked:
            raise ContractViolation(
                f"taxi {taxi.taxi_id} is routed inside shock window {k} but the pass "
                "neither scanned nor shocked it: a change to it bypassed the re-key"
            )


@invariant("every fleet-table column equals the taxi state it mirrors")
def check_fleet_table(table: "FleetTable") -> None:
    """The columns of a :class:`~repro.fleet.table.FleetTable` against
    its taxis.

    Each column is written only where its state changes, so a change
    site that forgets its write leaves a row that disagrees with its
    taxi, and fails here on the next boundary instead of silently
    screening a stale taxi.  O(fleet), which is why it is a contract
    and not part of the screen.
    """
    for row, taxi in enumerate(table.taxis):
        vertex, at = taxi.position_at(-math.inf)
        routed = taxi.schedule and taxi.next_due < math.inf
        expected = {
            "plan_vertex": (table.plan_vertex[row], vertex),
            "plan_time": (table.plan_time[row], at),
            "spare": (table.spare[row], taxi.capacity - taxi.committed),
            "busy": (table.busy[row], bool(taxi.schedule)),
            "route_end": (table.route_end[row], taxi.route.times[-1] if routed else -math.inf),
        }
        for name, (got, want) in expected.items():
            if got != want:
                raise ContractViolation(
                    f"fleet table {name} of taxi {taxi.taxi_id} is {got}, its state says "
                    f"{want}: a change site skipped its write"
                )


@invariant("a taxi's cluster cell names a live cluster, and a dead taxi has none")
def check_cluster_columns(
    fleet: "Mapping[int, Taxi]", cluster_index: "MobilityClusterIndex"
) -> None:
    """The taxi columns of a
    :class:`~repro.core.mobility_cluster.MobilityClusterIndex`.

    Every ``cluster`` cell is ``-1`` or a live cluster id, so a cluster
    that dissolved without clearing its cells fails here.  An
    out-of-service taxi has cluster ``-1`` and a NaN ``unit`` row: the
    scheme's breakdown hook clears both, or the dead taxi's last
    direction would keep it in candidate sets.  O(fleet).
    """
    live = set(cluster_index.cluster_ids())
    stale = sorted({c for c in cluster_index.cluster.tolist() if c != -1 and c not in live})
    if stale:
        raise ContractViolation(
            f"cluster cells name clusters {stale}, which no longer exist: "
            "a dissolving cluster left its taxis' cells set"
        )
    for tid, taxi in fleet.items():
        if not taxi.out_of_service:
            continue
        column = cluster_index.column_of[tid]
        cluster = int(cluster_index.cluster[column])
        unit = cluster_index.unit[column].tolist()
        if cluster != -1 or not all(map(math.isnan, unit)):
            raise ContractViolation(
                f"taxi {tid} is out of service but has cluster {cluster} and unit {unit}: "
                "its breakdown skipped the cluster eviction"
            )


@invariant("an out-of-service taxi is listed in no partition")
def check_out_of_service_unlisted(
    fleet: "Mapping[int, Taxi]", partition_index: "PartitionTaxiIndex"
) -> None:
    """A broken-down taxi's column of the ``P_z.L_t`` arrivals is all NaN.

    Its stale arrivals would otherwise keep it in candidate pools, so a
    dead taxi could keep winning matches; the scheme's breakdown hook
    evicts it, and this holds that hook to it.  O(fleet x partitions).
    """
    arrivals = partition_index.arrivals
    column_of = partition_index.column_of
    for tid, taxi in fleet.items():
        if not taxi.out_of_service:
            continue
        column = arrivals[:, column_of[tid]].tolist()
        listed = [z for z, arrival in enumerate(column) if not math.isnan(arrival)]
        if listed:
            raise ContractViolation(
                f"taxi {tid} is out of service but partitions {listed} still list it: "
                "its breakdown skipped the index eviction"
            )


__all__ = [
    "ENV_VAR",
    "ContractViolation",
    "check_cluster_columns",
    "check_due_index",
    "check_fleet_table",
    "check_monotone_clock",
    "check_out_of_service_unlisted",
    "check_request_accounting",
    "check_schedule",
    "check_shock_scan",
    "enable",
    "enabled",
    "invariant",
]
