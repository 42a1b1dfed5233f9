"""Stage timers and counters: the aggregation core of ``repro.obs``.

The dispatcher's hot path is instrumented with *stages* (named wall-time
spans recorded with :func:`time.perf_counter`) and *counters* (named
monotone tallies / end-of-run gauges).  Everything aggregates into an
:class:`Instrumentation` registry that the simulator snapshots into
:class:`~repro.sim.metrics.SimulationMetrics` when a run finishes.

Design constraints, in order:

1. **Low overhead.**  A stage enter/exit is two ``perf_counter`` calls,
   one dict lookup and four float updates; a counter bump is a single
   dict ``+=``.  Components that would otherwise record events at very
   high frequency (the shortest-path engine's cache, the insertion
   enumerator) keep plain integer tallies locally and report them in
   bulk — once per call or once per run — instead of once per event.
2. **Zero-cost opt-out.**  Every instrumented component holds
   :data:`NULL` (a :class:`NullInstrumentation`) until the simulator
   attaches a live registry, so library users who drive the matcher or
   routers directly pay a no-op method call at most.
3. **Nesting-aware.**  Stages may nest (``match.planning`` encloses
   ``route.basic`` / ``route.probabilistic``); timings are *inclusive*
   and the registry tracks the stack so traces can attribute events to
   the innermost open stage.
"""

from __future__ import annotations

from time import perf_counter

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "StageStats",
    "NULL",
]


class StageStats:
    """Aggregate wall-time statistics of one named stage."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def add(self, dt: float) -> None:
        """Fold one measured span into the aggregate."""
        self.count += 1
        self.total_s += dt
        if dt < self.min_s:
            self.min_s = dt
        if dt > self.max_s:
            self.max_s = dt

    @property
    def mean_s(self) -> float:
        """Mean span duration in seconds (0 when never recorded)."""
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-type snapshot (JSON-serialisable)."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StageStats(count={self.count}, total_s={self.total_s:.6f}, "
            f"mean_s={self.mean_s:.6f})"
        )


class _StageHandle:
    """Context manager measuring one span of a named stage."""

    __slots__ = ("_instr", "_name", "_t0")

    def __init__(self, instr: "Instrumentation", name: str) -> None:
        self._instr = instr
        self._name = name

    def __enter__(self) -> "_StageHandle":
        self._instr._stack.append(self._name)
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = perf_counter() - self._t0
        self._instr._stack.pop()
        self._instr.record(self._name, dt)


class Instrumentation:
    """Registry of stage timings, counters and (optional) trace events.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.obs.trace.JsonlTraceWriter`; when given,
        every stage exit and every :meth:`event` call is appended to the
        structured JSONL trace as well as aggregated.
    """

    enabled = True

    def __init__(self, trace=None) -> None:
        self.stages: dict[str, StageStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[str] = []
        self._trace = trace
        #: Number of aggregation operations performed (stage records plus
        #: counter bumps) — the basis of the overhead accounting tested in
        #: ``tests/test_obs.py``.
        self.ops = 0

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def stage(self, name: str) -> _StageHandle:
        """A context manager timing one span of stage ``name``."""
        return _StageHandle(self, name)

    def record(self, name: str, dt: float) -> None:
        """Fold an externally measured span into stage ``name``."""
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats()
        stats.add(dt)
        self.ops += 1
        if self._trace is not None:
            self._trace.emit({"ev": "stage", "name": name, "dt_s": dt})

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n
        self.ops += 1

    def gauge(self, name: str, value: int | float) -> None:
        """Set counter ``name`` to an absolute value (end-of-run levels)."""
        self.counters[name] = int(value)
        self.ops += 1

    # ------------------------------------------------------------------
    # trace
    # ------------------------------------------------------------------
    def event(self, kind: str, **fields) -> None:
        """Append a structured event to the trace (no-op when not tracing)."""
        if self._trace is not None:
            payload = {"ev": kind}
            if self._stack:
                payload["stage"] = self._stack[-1]
            payload.update(fields)
            self._trace.emit(payload)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def stage_snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict copy of every stage aggregate."""
        return {name: stats.as_dict() for name, stats in self.stages.items()}

    def counter_snapshot(self) -> dict[str, int]:
        """Plain-dict copy of every counter."""
        return dict(self.counters)

    def close(self) -> None:
        """Flush and close the trace writer, if any."""
        if self._trace is not None:
            self._trace.close()


class _NullStage:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_STAGE = _NullStage()


class NullInstrumentation(Instrumentation):
    """No-op registry: every probe degenerates to a constant method call.

    Components hold this by default so instrumentation is free unless a
    simulator (or a test) attaches a live :class:`Instrumentation`.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(trace=None)

    def stage(self, name: str) -> _NullStage:  # type: ignore[override]
        return _NULL_STAGE

    def record(self, name: str, dt: float) -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    def gauge(self, name: str, value: int | float) -> None:
        return None

    def event(self, kind: str, **fields) -> None:
        return None


#: Process-wide shared no-op registry (components' default ``_obs``).
NULL = NullInstrumentation()
