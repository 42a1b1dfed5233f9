"""Policy-agnostic discrete-event kernel.

The kernel owns the two things every event-driven simulation needs
and nothing else (the ab-sim design: *"Engine is framework-like —
events + queue + time; knows nothing about TNCs"*):

* an **event queue**, heap-ordered with a stable ``(time, priority,
  seq)`` tie-break so equal-time events fire in scheduling order;
* the **committed clock** — monotone by construction, because events
  can only be scheduled at or after ``now`` and are popped in heap
  order.

Domain logic lives in *handlers* registered per event kind: the
:class:`~repro.sim.engine.Simulator` subscribes its request-release and
drain-tick handlers, the streaming façade (:mod:`repro.service`) feeds
the same queue incrementally, and tests can drive the kernel bare.
The kernel never imports the fleet, the schemes or the metrics.

Event taxonomy (see docs/ARCHITECTURE.md):

``request.release``
    A ride request becomes visible at its release instant; payload is
    the :class:`~repro.demand.request.RideRequest`.
``drain.tick``
    A fixed-step clock tick after the last release, driving schedules
    to completion; payload is the drain deadline.
``window.tick``
    A dispatch-window boundary: the simulator flushes every online
    request buffered since the previous boundary through the batching
    scheme's whole-window matcher (the ``window-lap`` scheme); no
    payload.
``rebalance.tick``
    A proactive-repositioning boundary: the simulator censuses
    per-partition idle supply against predicted near-future demand and
    steers surplus idle taxis onto cruise routes toward deficit-zone
    landmarks (:mod:`repro.fleet.rebalance`); no payload.

The kind strings and their same-instant priorities live in one central
table (:mod:`repro.sim.events`); the constants below are re-exports so
existing ``from repro.sim.kernel import WINDOW_TICK`` imports keep
working.  :meth:`Kernel.schedule` reads each event's priority from that
table and refuses a kind that is undeclared or has no subscriber, so
no schedule site can get the protocol wrong.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .events import DRAIN_TICK, EVENT_TABLE, REBALANCE_TICK, REQUEST_RELEASE, WINDOW_TICK

__all__ = [
    "DRAIN_TICK",
    "EVENT_TABLE",
    "REBALANCE_TICK",
    "REQUEST_RELEASE",
    "WINDOW_TICK",
    "Event",
    "Kernel",
    "KernelError",
    "ScheduledInPast",
]


class KernelError(RuntimeError):
    """Invalid use of the event kernel."""


class ScheduledInPast(KernelError):
    """An event was scheduled before the committed clock.

    The kernel refuses instead of silently reordering: a caller that
    can legitimately receive late input (the streaming façade) must
    decide its own admission policy — reject the event or clamp it to
    ``now`` — before it reaches the queue.
    """


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence.

    Ordering is ``(time, priority, seq)``: time first, then an explicit
    priority for same-instant phases, then the monotone scheduling
    sequence number as the stable tie-break.
    """

    time: float
    kind: str
    seq: int
    payload: Any = None
    priority: int = 0

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """The heap ordering key."""
        return (self.time, self.priority, self.seq)


@dataclass
class Kernel:
    """Event queue + committed clock.

    Parameters
    ----------
    start_time:
        Initial committed clock value.

    Handlers subscribe per event kind and run in subscription order.
    ``run()`` pops events until the queue is empty (or past ``until``),
    committing the clock to each event's time before its handlers fire;
    a handler may schedule further events at or after the committed
    clock, which keeps the clock monotone by construction.
    """

    start_time: float = 0.0
    #: ``(sort_key, event)`` pairs, a binary heap.
    _queue: list[tuple[tuple[float, int, int], Event]] = field(default_factory=list)
    _handlers: dict[str, list[Callable[[Event], None]]] = field(default_factory=dict)
    _seq: "itertools.count[int]" = field(default_factory=itertools.count)
    _now: float = 0.0
    _processed: int = 0
    _scheduled: int = 0

    def __post_init__(self) -> None:
        self._now = float(self.start_time)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The committed clock: the time of the last dispatched event."""
        return self._now

    @property
    def pending(self) -> int:
        """Events scheduled but not yet dispatched."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Events dispatched so far."""
        return self._processed

    @property
    def events_scheduled(self) -> int:
        """Events accepted into the queue so far."""
        return self._scheduled

    # ------------------------------------------------------------------
    def subscribe(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register a handler for one event kind (append order is call order)."""
        self._handlers.setdefault(kind, []).append(handler)

    def schedule(self, time: float, kind: str, payload: Any = None) -> Event:
        """Enqueue an event at ``time`` (must be >= the committed clock).

        The same-instant priority comes from ``EVENT_TABLE[kind]``.
        Raises :class:`KernelError` for a kind the table does not
        declare or nobody has subscribed to (the event could only be
        dropped), and :class:`ScheduledInPast` for earlier times —
        admission policy for genuinely late input belongs to the caller.
        """
        spec = EVENT_TABLE.get(kind)
        if spec is None:
            raise KernelError(f"cannot schedule {kind!r}: not declared in EVENT_TABLE")
        if kind not in self._handlers:
            raise KernelError(f"cannot schedule {kind!r}: no handler subscribed")
        t = float(time)
        if t < self._now:
            raise ScheduledInPast(
                f"cannot schedule {kind!r} at {t}: clock already committed to {self._now}"
            )
        event = Event(time=t, kind=kind, seq=next(self._seq), payload=payload, priority=spec.priority)
        heapq.heappush(self._queue, (event.sort_key, event))
        self._scheduled += 1
        return event

    # ------------------------------------------------------------------
    def step(self) -> Event | None:
        """Dispatch the single earliest event; ``None`` when idle."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)[1]
        self._now = event.time
        self._processed += 1
        for handler in self._handlers[event.kind]:
            handler(event)
        return event

    def run(self, until: float | None = None) -> int:
        """Dispatch pending events in order; returns the number dispatched.

        ``until`` stops *before* dispatching any event later than the
        bound (the clock commits at most to ``until``).
        """
        dispatched = 0
        while self._queue:
            if until is not None and self._queue[0][1].time > until:
                break
            self.step()
            dispatched += 1
        return dispatched
