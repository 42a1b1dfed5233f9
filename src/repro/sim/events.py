"""The central event kind/priority table — one row per scheduled kind.

Every event kind the kernel ever schedules is declared here, together
with its same-instant **priority**.  The table is the single source of
truth for the event protocol: the kernel's re-exported kind constants
(:mod:`repro.sim.kernel`) come from this module, and
:meth:`Kernel.schedule <repro.sim.kernel.Kernel.schedule>` looks the
priority up here itself — callers pass only the kind, so a schedule
site cannot name a kind missing from this table (it raises) or carry a
priority disagreeing with it (there is nothing to pass).

Priorities resolve same-instant ordering *before* the scheduling
sequence number does, so they are protocol, not implementation detail.
The one non-zero row — ``window.tick`` at priority 1 — encodes the
PR 8 invariant: a request released exactly on a window boundary must
enter the *closing* window, in batch and streaming runs alike,
independent of event sequence numbers.  ``tests/test_kernel.py`` pins
the resulting same-instant order on this table.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DRAIN_TICK",
    "EVENT_TABLE",
    "EventSpec",
    "REBALANCE_TICK",
    "REQUEST_RELEASE",
    "WINDOW_TICK",
]

#: A ride request becomes visible to the dispatcher.
REQUEST_RELEASE = "request.release"

#: Fixed-step post-release tick draining open schedules.
DRAIN_TICK = "drain.tick"

#: Dispatch-window boundary flushing the batched online requests.
WINDOW_TICK = "window.tick"

#: Proactive-repositioning boundary steering surplus idle taxis.
REBALANCE_TICK = "rebalance.tick"


@dataclass(frozen=True, slots=True)
class EventSpec:
    """One protocol row: an event kind, its priority, and its contract."""

    kind: str
    priority: int
    description: str


#: The protocol table.  Keys are the kind strings; values carry the
#: same-instant priority the kernel stamps on every event of that kind.
EVENT_TABLE: dict[str, EventSpec] = {
    REQUEST_RELEASE: EventSpec(
        REQUEST_RELEASE,
        priority=0,
        description="one ride request becomes visible at its release instant",
    ),
    DRAIN_TICK: EventSpec(
        DRAIN_TICK,
        priority=0,
        description="fixed-step post-release tick driving schedules to completion",
    ),
    WINDOW_TICK: EventSpec(
        WINDOW_TICK,
        # Priority 1: fires *after* any release sharing its instant, so
        # a boundary release always enters the closing window (PR 8).
        priority=1,
        description="dispatch-window boundary flushing the buffered releases",
    ),
    REBALANCE_TICK: EventSpec(
        REBALANCE_TICK,
        # Priority 2: fires after any release (0) or window flush (1)
        # sharing its instant, so the supply census sees the idle set
        # *after* every same-instant dispatch committed — in batch and
        # streaming runs alike.
        priority=2,
        description="proactive-repositioning boundary moving surplus idle taxis",
    ),
}
