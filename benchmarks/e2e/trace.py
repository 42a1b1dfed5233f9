"""In-memory span tracer installed from outside ``src/repro``.

The traced child wraps a fixed table of *public* callables
(:data:`WRAP_TABLE`), records one span — name, start, end, parent — per
call in flat arrays, and aggregates them after the run.  A layer's
self time is its span time minus the time of its direct children, so
the self times of all spans sum to the duration of the root span: the
per-layer table sums to the wall clock by construction.

Only callables invoked O(events) times are wrapped.  ``Taxi.advance``
and ``maybe_cruise`` run O(events x fleet) times; wrapping them would
cost more than they do, so they are counted arithmetically and their
time is what remains as the self time of the kernel handlers
(``sim.boundary_self_s``).
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

#: span name -> "module:Attr.path" targets patched in the traced child.
#: Module-level functions are patched where they are *looked up* (the
#: importing module's namespace), methods on their defining class.
WRAP_TABLE: dict[str, tuple[str, ...]] = {
    # scenario build
    "demand.generate_days": ("repro.demand.generator:ChengduLikeDemand.generate_days",),
    "demand.replay_rng": ("repro.demand.generator:ChengduLikeDemand.replay_days_rng",),
    "demand.predictor_fit": ("repro.demand.prediction:DemandPredictor.fit",),
    "network.grid_city": ("repro.sim.scenario:grid_city",),
    "network.sp_init": ("repro.network.shortest_path:ShortestPathEngine.__init__",),
    "network.landmarks": ("repro.network.landmarks:LandmarkGraph.__init__",),
    "partitioning.bipartite": ("repro.sim.scenario:bipartite_partition",),
    "artifacts.load": ("repro.artifacts.store:ArtifactStore.load",),
    "artifacts.save": ("repro.artifacts.store:ArtifactStore.save",),
    # shortest-path queries
    "network.cost_matrix": ("repro.network.shortest_path:ShortestPathEngine.cost_matrix",),
    "network.cost_many": ("repro.network.shortest_path:ShortestPathEngine.cost_many",),
    "network.path": ("repro.network.shortest_path:ShortestPathEngine.path",),
    # kernel + engine (handlers are reached through Kernel.subscribe)
    "kernel.run": ("repro.sim.kernel:Kernel.run",),
    "sim.run": (
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.stream_finish",
    ),
    # fleet
    "fleet.rebalance_plan": ("repro.fleet.rebalance:Rebalancer.plan_moves",),
    # matching
    "core.dispatch": (
        "repro.core.mtshare:MTShare.dispatch",
        "repro.baselines.nosharing:NoSharing.dispatch",
    ),
    "core.match": ("repro.core.matching:Matcher.match",),
    "core.candidates": ("repro.core.matching:Matcher.candidate_taxis",),
    "core.install": (
        "repro.core.mtshare:MTShare.install",
        "repro.baselines.base:DispatchScheme.install",
    ),
    "core.on_taxi_advanced": ("repro.baselines.base:DispatchScheme.on_taxi_advanced",),
    "core.try_offline": (
        "repro.core.mtshare:MTShare.try_offline",
        "repro.baselines.nosharing:NoSharing.try_offline",
    ),
    # routing
    "core.route_basic": ("repro.core.routing:BasicRouter.route_for_schedule",),
    "core.route_prob": ("repro.core.routing:ProbabilisticRouter.route_for_schedule",),
    "core.cruise_route": ("repro.core.routing:ProbabilisticRouter.cruise_route",),
    # window
    "core.window_match": ("repro.core.window:WindowLAP.match_window",),
    "core.window_build": ("repro.core.window:WindowLAP.build_cost_matrix",),
    "core.window_lap": ("repro.core.window:solve_window_lap",),
    # payment
    "core.payment_settle": (
        "repro.core.payment:PaymentModel.settle",
        "repro.core.payment:PaymentModel.fare_at_dropoff",
    ),
    # service
    "service.submit": ("repro.service.service:DispatchService.submit",),
    "service.pump": ("repro.service.service:DispatchService.pump",),
    "service.finish": ("repro.service.service:DispatchService.finish",),
}

#: kernel event kind -> span name of its subscribed handlers.
HANDLER_SPANS = {
    "request.release": "sim.release",
    "window.tick": "sim.window_tick",
    "rebalance.tick": "sim.rebalance_tick",
    "drain.tick": "sim.drain_tick",
}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """The untraced run's tracer: every operation is a no-op."""

    _SPAN = _NullSpan()

    def open(self, name: str, start_ns: int | None = None) -> None:
        return None

    def close(self) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return self._SPAN

    def wrap(self, name: str, fn):
        return fn

    def wrap_iter(self, name: str, iterable):
        return iterable


class _Span:
    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._tracer.open(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.close()


class Tracer:
    """Flat-array span recorder (one process, one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, start_ns: int | None = None) -> None:
        """Open a span as a child of the innermost open one."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(len(self.start))
        self.start.append(perf_counter_ns() if start_ns is None else start_ns)

    def close(self) -> None:
        """Close the innermost open span."""
        self.end[self._stack.pop()] = perf_counter_ns()

    def span(self, name: str) -> _Span:
        """Context manager recording one span around harness code."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded per call."""
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        now = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, iterable):
        """Iterate ``iterable`` with one span per ``next()`` (lazy decoders)."""
        step = self.wrap(name, iter(iterable).__next__)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def spans(self) -> list[tuple[str, int, int, int]]:
        """Closed spans as ``(name, start_ns, end_ns, parent_index)``."""
        names = self.names
        return [
            (names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.start))
        ]


def aggregate(spans: list[tuple[str, int, int, int]]) -> dict:
    """Per-name call count, total and self seconds, plus per-edge totals.

    ``spans`` are ``(name, start_ns, end_ns, parent_index)`` with parents
    preceding children.  A span's self time is its duration minus its
    direct children's durations, so ``sum(self_s)`` over all names equals
    the summed duration of the root spans.  ``edges["parent>child"]`` is
    the total seconds ``child`` spent directly under ``parent``.
    """
    child_ns = [0] * len(spans)
    edges: dict[str, int] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            key = f"{spans[parent][0]}>{name}"
            edges[key] = edges.get(key, 0) + (end - start)
    by_name: dict[str, dict] = {}
    for (name, start, end, _parent), below in zip(spans, child_ns):
        row = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - below) / 1e9
    return {
        "spans": len(spans),
        "by_name": by_name,
        "edges": {k: v / 1e9 for k, v in edges.items()},
    }


def span_cost_ns(calls: int = 100_000) -> float:
    """What recording one span adds to one call, measured on a scratch tracer."""
    def noop() -> None:
        return None

    traced = Tracer().wrap("probe", noop)
    t0 = perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = perf_counter_ns()
    for _ in range(calls):
        traced()
    return ((perf_counter_ns() - t1) - (t1 - t0)) / calls


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping descriptors."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Patch every :data:`WRAP_TABLE` target and ``Kernel.subscribe``."""
    for span_name, targets in WRAP_TABLE.items():
        for target in targets:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            _patch(owner, attr, lambda fn, n=span_name: tracer.wrap(n, fn))

    from repro.sim.kernel import Kernel

    def traced_subscribe(subscribe):
        def wrapper(self, kind, handler):
            return subscribe(self, kind, tracer.wrap(HANDLER_SPANS.get(kind, f"sim.{kind}"), handler))

        return wrapper

    _patch(Kernel, "subscribe", traced_subscribe)
