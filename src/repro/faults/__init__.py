"""Deterministic fault injection and graceful degradation.

``repro.faults`` turns the simulator's happy path into a chaos-testable
one: :mod:`repro.faults.plan` draws seed-driven fault plans (taxi
breakdowns, pre-pickup cancellations, zonal travel-time shocks) and
:mod:`repro.faults.recovery` builds the continuation requests used to
salvage broken taxis' passengers.  The injection and recovery
orchestration itself lives in :class:`repro.sim.engine.Simulator`; the
semantics are documented in docs/ROBUSTNESS.md.
"""

from .plan import (
    FaultPlan,
    FaultSpec,
    RequestCancellation,
    ShockWindow,
    TaxiBreakdown,
    build_fault_plan,
    parse_fault_spec,
)
from .recovery import CONTINUATION_ID_BASE, continuation_request

__all__ = [
    "CONTINUATION_ID_BASE",
    "FaultPlan",
    "FaultSpec",
    "RequestCancellation",
    "ShockWindow",
    "TaxiBreakdown",
    "build_fault_plan",
    "continuation_request",
    "parse_fault_spec",
]
