"""Event-driven ridesharing simulator.

The simulator is one client of the discrete-event kernel
(:mod:`repro.sim.kernel`): the kernel owns the event queue and the
committed clock, the simulator owns the fleet and the workload, and the
dispatch scheme owns its indexes and matching logic.  Request releases
and post-release drain ticks are kernel events; each event boundary
advances every taxi with a route vertex due (found through a due index,
not a fleet sweep) along its planned route at the constant network
speed, firing pick-ups and drop-offs, scanning traversed vertices for
*offline* requests waiting at the roadside, and replaying any due
injected faults.  After the last release the drain ticks keep the clock
moving in fixed steps — the last step clamped to the drain horizon —
until all schedules finish.

Ingest is heap-ordered, so the workload no longer has to arrive sorted:
an out-of-order release is sequenced by the kernel instead of dragging
the committed clock backwards.  The streaming façade
(:mod:`repro.service`) feeds the same kernel incrementally through
:meth:`Simulator.stream_begin` / :meth:`Simulator.stream_submit` /
:meth:`Simulator.stream_finish`; batch :meth:`Simulator.run` is the
schedule-everything special case, and both produce bit-identical
decisions for the same workload.  See docs/ARCHITECTURE.md.

Offline requests live in a per-vertex pool.  When a taxi passes a
vertex hosting a released, not-yet-expired offline request, the scheme
is asked whether *this* taxi can serve it (Section IV-C2); if it
cannot and ``redispatch_encounters`` is on, the request becomes visible
to the dispatcher (the paper: "the server will quickly dispatch
another taxi to serve it").
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

from ..analysis import contracts
from ..baselines.base import DispatchScheme
from ..core.matching import MatchResult
from ..core.payment import PaymentModel
from ..demand.request import RideRequest
from ..faults.plan import FaultPlan, ShockWindow
from ..faults.recovery import CONTINUATION_ID_BASE, continuation_request
from ..fleet.rebalance import Rebalancer
from ..fleet.taxi import FleetLog, Taxi
from ..index.spatial import StaticVertexGrid
from ..memo import memo_stats
from ..obs import Instrumentation, JsonlTraceWriter
from .kernel import DRAIN_TICK, REBALANCE_TICK, REQUEST_RELEASE, WINDOW_TICK, Event, Kernel
from .metrics import SimulationMetrics

#: Clock step while draining schedules after the last online release.
DRAIN_STEP_S = 60.0

#: Safety horizon after the last release before the run is cut off.
DRAIN_HORIZON_S = 3 * 3600.0

#: A street-hailing passenger flags down any taxi passing within this
#: distance of where they stand (roughly one city block).
ENCOUNTER_RADIUS_M = 250.0

#: Raw-sample list bound in compact (bounded-RSS streaming) mode.
COMPACT_SAMPLE_CAP = 4096

#: Streaming decision callback: ``(request, now, matched, taxi_id,
#: elapsed_s, kind)`` with ``kind`` one of ``"online"`` (a first-look
#: dispatch), ``"redispatch"`` (encounter hand-off or fault recovery)
#: or ``"offline"`` (a street hail installed on a passing taxi).
DecisionHook = Callable[[RideRequest, float, bool, int | None, float, str], None]


@dataclass
class _EpisodeState:
    """Per-taxi ridesharing episode for payment settlement."""

    start_time: float = 0.0
    active: bool = False
    member_requests: dict[int, RideRequest] = field(default_factory=dict)
    pickup_times: dict[int, float] = field(default_factory=dict)
    dropoff_times: dict[int, float] = field(default_factory=dict)


class Simulator:
    """Run one scheme over one workload on one fleet.

    Parameters
    ----------
    scheme:
        The dispatcher; its network/engine/config drive everything.
    taxis:
        Initial fleet; the simulator takes ownership and mutates it.
    requests:
        The full workload (online and offline), any order.
    payment:
        Optional payment model; when given, every ridesharing episode
        is settled and the monetary aggregates are collected.
    redispatch_encounters:
        Whether an offline request that a taxi meets but cannot carry
        is handed to the dispatcher as a fresh online request.
    obs:
        Observability registry (``repro.obs``); the simulator creates
        one when omitted and attaches it to the scheme, so every run's
        metrics carry per-stage dispatch timings and counters.  Pass a
        :class:`~repro.obs.NullInstrumentation` to disable aggregation
        entirely.
    trace_path:
        When given (and ``obs`` is omitted), stage exits and dispatch
        events are additionally appended to this JSONL file.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` of disruptions to
        replay at event boundaries (breakdowns, cancellations, shock
        windows); ``None`` or an empty plan leaves the simulation path
        bit-identical to a fault-free run.  See docs/ROBUSTNESS.md.
    compact:
        Bounded-memory mode for soak-length streaming runs: completed
        trips are evicted from the fleet log once their samples are
        folded into the metrics, and the metric sample lists are capped
        at :data:`COMPACT_SAMPLE_CAP` (running aggregates keep exact
        counts/means).  Off by default — determinism fingerprints rely
        on the full sample lists.
    rebalance:
        Optional :class:`~repro.fleet.rebalance.Rebalancer`: at each
        ``rebalance.tick`` boundary, surplus idle taxis are steered onto
        cruise routes toward predicted-deficit partitions; a real match
        tears the cruise down for free.  ``None`` (or a disabled spec)
        leaves the simulation path bit-identical to a rebalancing-free
        run.  See docs/ALGORITHMS.md ("Proactive rebalancing").
    """

    def __init__(
        self,
        scheme: DispatchScheme,
        taxis: list[Taxi],
        requests: list[RideRequest],
        payment: PaymentModel | None = None,
        redispatch_encounters: bool = True,
        obs: Instrumentation | None = None,
        trace_path: str | None = None,
        faults: FaultPlan | None = None,
        compact: bool = False,
        rebalance: Rebalancer | None = None,
    ) -> None:
        self._scheme = scheme
        if obs is None:
            trace = JsonlTraceWriter(trace_path) if trace_path else None
            obs = Instrumentation(trace=trace)
        self._obs = obs
        scheme.instrument(obs)
        self._fleet: dict[int, Taxi] = {}
        for taxi in taxis:
            if taxi.taxi_id in self._fleet:
                raise ValueError(f"duplicate taxi id {taxi.taxi_id} in the fleet")
            self._fleet[taxi.taxi_id] = taxi
        # Due index (docs/PERFORMANCE.md, "Fleet advancement"): a
        # min-heap of ``(due time, fleet order)`` holding, for every
        # in-service taxi that can do anything at a boundary, an entry
        # at or before the time it can — its next route vertex, or for
        # a parked idle taxi its scheme's cruise cooldown.  Entries are
        # never invalidated: a stale one costs one no-op ``advance``.
        self._taxis = list(taxis)
        self._order = {t.taxi_id: i for i, t in enumerate(taxis)}
        self._due: list[tuple[float, int]] = []
        # While a sweep runs: the fleet orders still awaiting their turn
        # (a heap), the order being processed and the sweep's instant
        # (see ``_rekey``).
        self._sweep_queue: list[int] | None = None
        self._sweep_order = -1
        self._sweep_now = 0.0
        self._requests = sorted(requests, key=lambda r: (r.release_time, r.request_id))
        self._payment = payment
        self._redispatch = redispatch_encounters

        self._log = FleetLog()
        self._metrics = SimulationMetrics(scheme_name=scheme.name)
        self._episodes: dict[int, _EpisodeState] = defaultdict(_EpisodeState)
        # Offline requests are registered under every vertex inside their
        # encounter radius; a taxi traversing any of those vertices can
        # be hailed.  ``_offline_done`` marks requests already served or
        # expired so duplicate bucket entries are skipped lazily.
        self._offline_pool: dict[int, list[RideRequest]] = defaultdict(list)
        self._offline_done: set[int] = set()
        # Vertex grid for catchment lookups; built lazily on the first
        # offline request so online-only workloads pay nothing.
        self._vertex_grid: StaticVertexGrid | None = None
        self._now = 0.0
        # Fault-injection state.  An empty plan is normalised to None so
        # a "faults off" run takes exactly the pre-fault code path.
        self._faults = faults if faults is not None and not faults.empty else None
        self._breakdown_i = 0
        self._cancel_i = 0
        self._shocked: set[tuple[int, int]] = set()
        # Shock replay (docs/PERFORMANCE.md, "Fault replay"): the fleet
        # orders re-keyed since the last boundary, and the shock windows
        # that have had their first boundary.  Only a plan with shock
        # windows keeps the set; every other run skips the bookkeeping.
        self._touched: set[int] | None = (
            set() if self._faults is not None and self._faults.shocks else None
        )
        self._shocks_opened: set[int] = set()
        # continuation/redispatched request id -> the original workload
        # request whose accounting bucket the recovery chain occupies.
        self._continuation_root: dict[int, RideRequest] = {}
        self._cont_serial = 0
        self._request_by_id: dict[int, RideRequest] = {}

        # Discrete-event kernel: request releases and drain ticks are
        # heap-ordered events, so out-of-order ingestion (the streaming
        # façade, an unsorted batch) can never move the clock backwards.
        self._kernel = Kernel(start_time=0.0)
        self._kernel.subscribe(REQUEST_RELEASE, self._on_request_release)
        self._kernel.subscribe(DRAIN_TICK, self._on_drain_tick)
        # Periodic tick kind -> instant of its one outstanding event
        # (window and rebalance boundaries; see ``_arm_tick``).
        self._tick_at: dict[str, float] = {}
        # Offline requests awaiting resolution, keyed by id — the
        # end-of-run sweep walks this instead of the full request list,
        # so streaming runs never need to retain the workload.
        self._pending_offline: dict[int, RideRequest] = {}
        # Dispatch-window batching (the window-lap scheme): when the
        # scheme declares a window length, online releases are buffered
        # and flushed through ``scheme.match_window`` at ``window.tick``
        # boundaries instead of being dispatched one by one.
        self._window_s = scheme.dispatch_window_s
        self._window_buffer: list[RideRequest] = []
        if self._window_s is not None:
            self._kernel.subscribe(WINDOW_TICK, self._on_window_tick)
        # Proactive repositioning (repro.fleet.rebalance): a disabled
        # spec is normalised to None so a "rebalancing off" run takes
        # exactly the pre-rebalancing code path — bit-identical
        # fingerprints, zero rebalance.* counters.
        self._rebalance = rebalance if rebalance is not None and rebalance.spec.enabled else None
        # taxi id -> target partition of its in-flight repositioning
        # cruise; entries are dropped when the cruise arrives, is
        # abandoned for a real match, or the taxi breaks down.
        self._rebalance_dest: dict[int, int] = {}
        if self._rebalance is not None:
            self._kernel.subscribe(REBALANCE_TICK, self._on_rebalance_tick)
        self._last_release = 0.0
        self._streaming = False
        self._wall_start = 0.0
        self._tally_base: dict[str, int] = {}
        self._compact = bool(compact)
        if self._compact:
            self._metrics.sample_cap = COMPACT_SAMPLE_CAP
        #: Optional decision-stream hook fired once per dispatch outcome
        #: ``(request, now, matched, taxi_id, elapsed_s, kind)`` with
        #: ``kind`` in ``{"online", "redispatch", "offline"}``; the
        #: streaming façade uses it to emit its decision records.
        self.on_decision: DecisionHook | None = None

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> SimulationMetrics:
        """Metrics collected so far."""
        return self._metrics

    @property
    def scheme(self) -> DispatchScheme:
        """The dispatch scheme this run drives."""
        return self._scheme

    @property
    def log(self) -> FleetLog:
        """Per-request service records."""
        return self._log

    @property
    def fleet(self) -> dict[int, Taxi]:
        """The simulated taxis."""
        return self._fleet

    @property
    def obs(self) -> Instrumentation:
        """The observability registry driving this run."""
        return self._obs

    @property
    def kernel(self) -> Kernel:
        """The discrete-event kernel ordering this run's events."""
        return self._kernel

    # ------------------------------------------------------------------
    # callbacks wired into taxi movement
    # ------------------------------------------------------------------
    def _on_pickup(self, taxi: Taxi, request: RideRequest, t: float) -> None:
        self._log.record_pickup(request, t)
        episode = self._episodes[taxi.taxi_id]
        if not episode.active:
            episode.active = True
            episode.start_time = t
            episode.member_requests = {}
            episode.pickup_times = {}
            episode.dropoff_times = {}
        episode.member_requests[request.request_id] = request
        episode.pickup_times[request.request_id] = t

    def _on_dropoff(self, taxi: Taxi, request: RideRequest, t: float) -> None:
        self._complete_trip(request, t)
        self._scheme.on_request_finished(request)
        episode = self._episodes[taxi.taxi_id]
        episode.dropoff_times[request.request_id] = t
        self._quote_fare(taxi, episode, request, t)
        if taxi.occupancy == 0 and episode.active:
            self._settle_episode(taxi, episode, t)
            episode.active = False

    def _complete_trip(self, request: RideRequest, t: float) -> None:
        """Log one delivery and fold the trip's samples into the metrics."""
        rid = request.request_id
        self._log.record_dropoff(request, t)
        trip = self._log.trips[rid]
        self._metrics.add_waiting(trip.waiting_time)
        self._metrics.add_detour(trip.detour_time)
        self._metrics.completed += 1
        if self._compact:
            # Soak mode: the trip's samples are folded in; drop the
            # record so the fleet log stays bounded over long streams.
            self._log.trips.pop(rid, None)

    def _quote_fare(self, taxi: Taxi, episode: _EpisodeState,
                    request: RideRequest, t: float) -> None:
        """Online fare quote at drop-off (Eqs. 6-8).

        The arriving passenger's fare uses the actual detour rates of
        everyone already delivered and the *projected* rates (Eq. 7) of
        co-riders still on board, assuming they finish along shortest
        paths.  Quotes are stored per request in the metrics.
        """
        if self._payment is None or not episode.active:
            return
        engine = self._scheme.engine
        speed = self._scheme.network.speed_mps
        shortest = {}
        shared = {}
        projected_extra = {}
        for rid, member in episode.member_requests.items():
            if rid not in episode.pickup_times:
                continue  # assigned to this episode but not yet aboard
            shortest[rid] = member.direct_cost * speed
            end = episode.dropoff_times.get(rid, t)
            shared[rid] = max(0.0, (end - episode.pickup_times[rid]) * speed)
            if rid not in episode.dropoff_times:
                projected_extra[rid] = engine.distance_m(
                    request.destination, member.destination
                )
        route_m = (t - episode.start_time) * speed
        quote = self._payment.fare_at_dropoff(
            request.request_id, shortest, shared, projected_extra, route_m
        )
        self._metrics.quoted_fares[request.request_id] = quote

    def _settle_episode(self, taxi: Taxi, episode: _EpisodeState, end_time: float) -> None:
        if self._payment is None:
            return
        speed = self._scheme.network.speed_mps
        shortest = {}
        shared = {}
        for rid, request in episode.member_requests.items():
            shortest[rid] = request.direct_cost * speed
            # Members without a drop-off were still aboard when the
            # episode was cut short (breakdown, drain horizon); they are
            # settled as if delivered at the cut instant.
            end = episode.dropoff_times.get(rid, end_time)
            shared[rid] = (end - episode.pickup_times[rid]) * speed
        route_m = (end_time - episode.start_time) * speed
        settlement = self._payment.settle(shortest, shared, route_m)
        self._metrics.regular_fares += settlement.total_regular_fare
        self._metrics.shared_fares += settlement.total_passenger_payment
        self._metrics.driver_incomes += settlement.driver_income
        self._metrics.route_fares += settlement.route_fare

    # ------------------------------------------------------------------
    # time advancement
    # ------------------------------------------------------------------
    def _advance_all(self, now: float) -> None:
        """Advance every taxi that has something due at ``now``.

        ``Taxi.advance`` is a strict no-op while ``taxi.next_due > now``
        and ``maybe_cruise`` while the cruise cooldown runs, so a taxi
        without a due entry is already in the state a full fleet sweep
        would leave it in.  Due taxis are processed once each, in fleet
        order — the order every sample list and callback stream was
        recorded in when the whole fleet was swept.
        """
        contracts.check_monotone_clock(self._now, now)
        due = self._due
        if due and due[0][0] <= now:
            queue = self._sweep_queue = []
            while due and due[0][0] <= now:
                heappush(queue, heappop(due)[1])
            self._sweep_order = -1
            self._sweep_now = now
            taxis = self._taxis
            calls = 0
            while queue:
                order = heappop(queue)
                taxi = taxis[order]
                if order == self._sweep_order or taxi.out_of_service:
                    continue  # one turn per taxi, however many entries named it
                self._sweep_order = order
                calls += 1
                self._advance_taxi(taxi, now)
                self._rekey(taxi)
            self._sweep_queue = None
            self._obs.count("sim.advance_calls", calls)
        contracts.check_due_index(self._taxis, self._due_time, self._due)
        self._scheme.check_fleet_table()
        contracts.check_request_accounting(self._metrics)

    def _advance_taxi(self, taxi: Taxi, now: float) -> None:
        """One taxi's boundary step: move, notify, scan encounters, maybe cruise."""
        # The monotone lifetime counter survives schedule completion
        # (which resets the per-schedule ``_stops_fired`` index), so
        # this comparison reports *true* firings only: an idle taxi
        # cruising through vertices no longer claims "stops fired"
        # every tick and no longer triggers needless index refreshes.
        fired_before = taxi.stops_fired_total
        traversed = taxi.advance(now, on_pickup=self._on_pickup, on_dropoff=self._on_dropoff)
        if traversed:
            stops_fired = taxi.stops_fired_total != fired_before
            self._obs.count("sim.taxi_advances")
            if stops_fired:
                self._obs.count("sim.stop_notifications")
            self._scheme.on_taxi_advanced(taxi, now, stops_fired)
            self._scan_encounters(taxi, traversed)
        if taxi.idle:
            # Idle taxis may start a demand-seeking cruise (non-peak
            # probabilistic mode); a no-op for every other scheme.
            self._scheme.maybe_cruise(taxi, now)

    def _due_time(self, taxi: Taxi) -> float:
        """When ``taxi`` can next do anything at a boundary (``inf``: never)."""
        if taxi.out_of_service:
            return math.inf
        due = taxi.next_due
        if due == math.inf and taxi.idle:
            due = self._scheme.cruise_due(taxi)
        return due

    def _rekey(self, taxi: Taxi) -> None:
        """Index ``taxi`` under its current due time; call after every plan change.

        A full fleet sweep mutated plans *while* sweeping: an encounter
        scan on taxi A can redispatch a request to taxi B with a first
        vertex already due, and the sweep then advanced B at this same
        boundary iff B came later in fleet order — otherwise (and for a
        plan A gave itself) at the next one.  So a plan that falls due
        mid-sweep joins the in-flight queue iff its taxi's turn is
        still ahead; everything else waits in the heap.

        Every change to a taxi's position, route or cursor passes
        through here, so this is also where the shock pass learns which
        taxis it must look at again (``_apply_shock``).
        """
        order = self._order[taxi.taxi_id]
        if self._touched is not None:
            self._touched.add(order)
        due = self._due_time(taxi)
        if due == math.inf:
            return
        if self._sweep_queue is not None and due <= self._sweep_now and order > self._sweep_order:
            heappush(self._sweep_queue, order)
        else:
            heappush(self._due, (due, order))

    def _register_offline(self, request: RideRequest) -> None:
        """Expose an offline request to every vertex it can hail from.

        Catchment lookup is O(cell) through a static vertex grid
        instead of an O(V) full-network scan; the grid's exact distance
        predicate keeps the catchment set identical to the scan's.
        """
        radius = ENCOUNTER_RADIUS_M
        if self._vertex_grid is None:
            self._vertex_grid = StaticVertexGrid(
                self._scheme.network.xy, cell_size_m=max(radius, 1.0)
            )
        ox, oy = self._scheme.network.xy[request.origin]
        catchment = self._vertex_grid.query_radius(float(ox), float(oy), radius)
        self._obs.count("kernel.grid_catchment_queries")
        for node in catchment:
            self._offline_pool[int(node)].append(request)
        if catchment.size == 0:
            self._offline_pool[request.origin].append(request)
        self._pending_offline[request.request_id] = request

    def _resolve_offline(self, rid: int) -> None:
        """An offline request reached a terminal bucket: stop tracking it."""
        self._offline_done.add(rid)
        self._pending_offline.pop(rid, None)

    def _scan_encounters(self, taxi: Taxi, traversed: list[tuple[int, float]]) -> None:
        scanned = 0
        for node, t in traversed:
            pool = self._offline_pool.get(node)
            if not pool:
                continue
            still_waiting: list[RideRequest] = []
            for request in pool:
                rid = request.request_id
                if rid in self._offline_done:
                    continue
                scanned += 1
                if t < request.release_time:
                    still_waiting.append(request)
                    continue
                if t > request.pickup_deadline:
                    # Expired: the passenger gave up.  Count it — these
                    # used to vanish silently, leaving served + failed
                    # short of the request total.
                    self._resolve_offline(rid)
                    self._metrics.expired_offline += 1
                    self._obs.event("offline_expired", request=rid, t=t)
                    continue
                result = self._scheme.try_offline(taxi, request, t)
                if result is not None:
                    # A failed street hail emits no decision record: the
                    # passenger keeps waiting for the next taxi.
                    served = self._record_decision(request, t, result, 0.0, "offline")
                else:
                    served = self._redispatch and self._dispatch_online(request, t, "redispatch")
                if served:
                    self._metrics.served_offline += 1
                    self._resolve_offline(rid)
                else:
                    still_waiting.append(request)
            if still_waiting:
                self._offline_pool[node] = still_waiting
            else:
                del self._offline_pool[node]
        if scanned:
            self._obs.count("sim.encounters_scanned", scanned)

    # ------------------------------------------------------------------
    # fault injection (repro.faults; docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def _apply_faults(self, now: float) -> None:
        """Replay every scheduled fault whose time has come.

        Called at each event boundary right after the fleet advanced to
        ``now`` — *boundary semantics*: an event drawn for time ``t``
        takes effect at the first boundary with ``t <= now``, which is
        what keeps faulted runs deterministic for a given plan.
        Cancellations run before breakdowns at the same boundary, so a
        withdrawn request is never pointlessly re-dispatched.
        """
        plan = self._faults
        if plan is None:
            return
        cancels = plan.cancellations
        while self._cancel_i < len(cancels) and cancels[self._cancel_i].time <= now:
            event = cancels[self._cancel_i]
            self._cancel_i += 1
            request = self._request_by_id.get(event.request_id)
            if request is not None:
                self._handle_cancel(request, now)
        breakdowns = plan.breakdowns
        while self._breakdown_i < len(breakdowns) and breakdowns[self._breakdown_i].time <= now:
            event = breakdowns[self._breakdown_i]
            self._breakdown_i += 1
            taxi = self._fleet.get(event.taxi_id)
            if taxi is not None and not taxi.out_of_service:
                self._handle_breakdown(taxi, now)
        for k, window in enumerate(plan.shocks):
            if window.start <= now < window.end:
                self._apply_shock(k, window, now)
        if self._touched is not None:
            self._touched.clear()
        contracts.check_request_accounting(self._metrics)

    def _handle_breakdown(self, taxi: Taxi, now: float) -> None:
        """Take a taxi out of service and salvage its commitments.

        Recovery policy: the interrupted payment episode is settled at
        the breakdown instant; onboard passengers are dropped at the
        breakdown vertex and re-enter the dispatch queue as continuation
        requests; assigned-but-not-picked-up requests are re-dispatched
        as-is.  Whatever cannot be re-placed is counted ``stranded``.
        """
        tid = taxi.taxi_id
        episode = self._episodes.get(tid)
        onboard, assigned = taxi.break_down()
        # A repositioning cruise dies with the taxi: the plan is already
        # cleared by break_down(), the scheme's eviction hook removes
        # the taxi from every supply index below, and the stale
        # destination must not be credited as in-flight at later ticks.
        if self._rebalance_dest.pop(tid, None) is not None:
            self._obs.count("rebalance.broken")
        self._scheme.on_taxi_breakdown(taxi, now)
        self._metrics.breakdowns += 1
        self._obs.count("fault.breakdowns")
        self._obs.event(
            "breakdown", taxi=tid, t=now,
            onboard=len(onboard), assigned=len(assigned),
        )
        if episode is not None and episode.active:
            self._settle_episode(taxi, episode, now)
            episode.active = False
        for request in onboard:
            self._scheme.on_request_finished(request)
            self._salvage_onboard(request, taxi.loc, now)
        for request in assigned:
            self._scheme.on_request_finished(request)
            self._redispatch_request(request, now)

    def _salvage_onboard(self, request: RideRequest, node: int, now: float) -> None:
        """Recover one passenger group dropped at the breakdown vertex."""
        rid = request.request_id
        root = self._continuation_root.get(rid, request)
        if node == request.destination:
            # The taxi died exactly at the drop-off vertex: the trip is
            # complete (the scheme was already notified and the episode
            # settled by ``_handle_breakdown``).
            self._complete_trip(request, now)
            return
        spec = self._faults.spec
        cont_id = CONTINUATION_ID_BASE + self._cont_serial
        self._cont_serial += 1
        cont = continuation_request(
            self._scheme.engine, request, cont_id, node, now,
            spec.continuation_rho, spec.continuation_wait_s,
        )
        if cont is None:
            self._strand(root)
            return
        self._continuation_root[cont_id] = root
        self._metrics.continuations += 1
        self._obs.count("fault.continuations")
        self._obs.event("continuation", request=rid, continuation=cont_id, t=now)
        if self._dispatch_online(cont, now, "redispatch"):
            # The root request already occupies its served bucket.
            self._metrics.reassigned += 1
        else:
            self._strand(root)

    def _redispatch_request(self, request: RideRequest, now: float) -> None:
        """Re-dispatch an assigned-but-not-picked-up request."""
        root = self._continuation_root.get(request.request_id, request)
        self._obs.count("fault.redispatches")
        if self._dispatch_online(request, now, "redispatch"):
            self._metrics.reassigned += 1
        else:
            self._strand(root)

    def _strand(self, root: RideRequest) -> None:
        """Recovery failed: move the root request served -> stranded."""
        if root.offline:
            self._metrics.served_offline -= 1
            self._metrics.stranded_offline += 1
        else:
            self._metrics.served_online -= 1
            self._metrics.stranded_online += 1
        self._obs.count("fault.stranded")
        self._obs.event("stranded", request=root.request_id)

    def _handle_cancel(self, request: RideRequest, now: float) -> None:
        """A passenger withdraws a request before pick-up.

        No-op when the passengers are already aboard or the request
        already failed (unserved/stranded); an assigned request is
        removed from its taxi's schedule and the plan rebuilt for the
        remaining riders.
        """
        rid = request.request_id
        trip = self._log.trips.get(rid)
        if trip is not None:
            if not math.isnan(trip.pickup_time):
                return  # already aboard (or delivered): too late
            taxi = self._fleet.get(trip.taxi_id)
            if taxi is None or rid not in taxi.assigned:
                return  # stranded after a breakdown; already accounted
            if not self._scheme.cancel_assigned(taxi, request, now):
                return
            self._rekey(taxi)
            if request.offline:
                self._metrics.served_offline -= 1
                self._metrics.cancelled_offline += 1
            else:
                self._metrics.served_online -= 1
                self._metrics.cancelled_online += 1
        elif request.offline:
            if rid in self._offline_done:
                return  # expired before the passenger bothered to cancel
            self._resolve_offline(rid)
            self._metrics.cancelled_offline += 1
        else:
            # Online and never matched: either still buffered in an open
            # dispatch window (withdraw it before the flush) or already
            # in unserved_online.
            for i, pending in enumerate(self._window_buffer):
                if pending.request_id == rid:
                    del self._window_buffer[i]
                    self._metrics.cancelled_online += 1
                    break
            else:
                return
        self._obs.count("fault.cancellations")
        self._obs.event("cancel", request=rid, t=now)

    def _apply_shock(self, k: int, window: ShockWindow, now: float) -> None:
        """Delay every in-service taxi inside an active shock window.

        Each taxi is delayed at most once per window (tracked in
        ``_shocked``); taxis without a remaining route are unaffected
        but stay eligible if they pick up a plan while the window is
        still open.

        The test reads ``out_of_service``, ``loc``, whether a route
        remains and ``_shocked``, and none of those changes without a
        ``_rekey`` (a breakdown only ever makes a taxi ineligible).  So
        the window's first boundary scans the whole fleet and every
        later one only the taxis re-keyed since the previous boundary —
        read live, so a taxi an earlier window shocked at this boundary
        is looked at again — in fleet order.
        """
        if k in self._shocks_opened:
            orders: Sequence[int] = sorted(self._touched)
        else:
            self._shocks_opened.add(k)
            orders = range(len(self._taxis))
        xy = self._scheme.network.xy
        r2 = window.radius_m * window.radius_m
        shocked = self._shocked
        taxis = self._taxis
        for order in orders:
            taxi = taxis[order]
            tid = taxi.taxi_id
            if taxi.out_of_service or (k, tid) in shocked:
                continue
            x, y = xy[taxi.loc]
            dx = float(x) - window.cx
            dy = float(y) - window.cy
            if dx * dx + dy * dy > r2:
                continue
            if taxi.apply_delay(window.delay_s):
                self._rekey(taxi)
                shocked.add((k, tid))
                self._metrics.shock_delays += 1
                self._scheme.on_taxi_replanned(taxi, now)
                self._obs.count("fault.shock_delays")
                self._obs.event("shock", taxi=tid, t=now, window=k)
        self._obs.count("fault.shock_checks", len(orders))
        contracts.check_shock_scan(taxis, orders, k, window, xy, shocked)

    # ------------------------------------------------------------------
    # dispatching
    # ------------------------------------------------------------------
    def _install(self, result: MatchResult, request: RideRequest, now: float) -> None:
        """Apply a match to its taxi and log the assignment."""
        taxi = self._scheme.install(result, request, now)
        self._rekey(taxi)
        # A real match pre-empts any repositioning cruise: install()
        # replaced the plan wholesale, so just retire the bookkeeping.
        if self._rebalance_dest.pop(taxi.taxi_id, None) is not None:
            self._obs.count("rebalance.abandoned")
        self._log.record_assignment(request, result.taxi_id, now)

    def _record_decision(self, request: RideRequest, now: float, result: MatchResult | None,
                         elapsed: float, kind: str) -> bool:
        """The one place a dispatcher outcome is installed and reported.

        Only a first look (``kind == "online"``) owns an accounting
        bucket and the response/candidate samples; a street hail or a
        recovery dispatch moves a request that is already counted, so
        its caller bumps the bucket it knows about.  Returns whether the
        request was matched.
        """
        if kind == "online":
            self._metrics.add_response(elapsed)
            if result is None:
                self._metrics.unserved_online += 1
            else:
                self._metrics.add_candidates(result.num_candidates)
                self._metrics.served_online += 1
        if result is not None:
            self._install(result, request, now)
        if self.on_decision is not None:
            taxi_id = None if result is None else result.taxi_id
            self.on_decision(request, now, result is not None, taxi_id, elapsed, kind)
        return result is not None

    def _trace_dispatch(self, request: RideRequest, now: float, elapsed: float,
                        matched: bool, redispatch: bool) -> None:
        """Stage sample and trace event of one dispatcher look at a request."""
        self._obs.record("sim.dispatch", elapsed)
        self._obs.event(
            "dispatch",
            request=request.request_id,
            t=now,
            elapsed_ms=round(1000.0 * elapsed, 4),
            matched=matched,
            redispatch=redispatch,
        )

    def _dispatch_online(self, request: RideRequest, now: float, kind: str = "online") -> bool:
        t0 = time.perf_counter()  # repro-lint: disable=REP003 reason=response-time metric only, never a decision input
        result = self._scheme.dispatch(request, now)
        elapsed = time.perf_counter() - t0  # repro-lint: disable=REP003 reason=response-time metric only, never a decision input
        self._trace_dispatch(request, now, elapsed, result is not None, kind != "online")
        return self._record_decision(request, now, result, elapsed, kind)

    # ------------------------------------------------------------------
    # run orchestration (batch and streaming share every piece below)
    # ------------------------------------------------------------------
    def run(self) -> SimulationMetrics:
        """Execute the full workload and return the collected metrics.

        Batch mode is the stream fed all at once: every constructor
        request goes through the same admit step as
        :meth:`stream_submit` and becomes a ``request.release`` event
        (heap order restores any ingestion disorder), the post-release
        drain is a chain of ``drain.tick`` events, and the boundary work
        per event is exactly the classic loop's — so decision traces are
        bit-identical to the pre-kernel engine.
        """
        self._start_run()
        for request in self._requests:
            self._admit(request)
        return self._finish_run()

    def _tallies(self) -> dict[str, int]:
        """The engine's counters plus every scheme-side memo's, by metric name."""
        out = self._scheme.engine.stats()
        out.update(memo_stats(self._scheme.memos()))
        return out

    def _start_run(self) -> None:
        """Prepare metrics baselines and the fleet for event dispatch."""
        self._wall_start = time.perf_counter()  # repro-lint: disable=REP003 reason=wall_time_s metric only, never a decision input
        # The engine, network and landmark graph may be shared across runs
        # (scenarios memoise them), so their tallies are reported as this
        # run's delta.
        self._tally_base = self._tallies()
        self._scheme.register_fleet(self._fleet, now=0.0)
        for taxi in self._taxis:
            self._rekey(taxi)

    def _count_request(self, request: RideRequest) -> None:
        """Add one request to the workload population counters."""
        self._metrics.num_requests += 1
        if request.offline:
            self._metrics.num_offline += 1
        else:
            self._metrics.num_online += 1

    def _admit(self, request: RideRequest) -> None:
        """Count one request and queue its release (batch and streaming)."""
        self._count_request(request)
        if self._faults is not None:
            self._request_by_id[request.request_id] = request
        self._kernel.schedule(request.release_time, REQUEST_RELEASE, request)

    def _boundary(self, now: float) -> None:
        """The per-event boundary: advance the fleet, commit the clock,
        replay due faults.  Order matters — a taxi broken by ``t <=
        now`` must not win the match for a request released at ``now``,
        so faults fire after the advance and before any dispatch."""
        self._advance_all(now)
        self._now = now
        self._apply_faults(now)

    def _on_request_release(self, event: Event) -> None:
        """Kernel handler: one ride request becomes visible."""
        request: RideRequest = event.payload
        now = event.time
        self._last_release = max(self._last_release, now)
        self._boundary(now)
        if self._rebalance is not None:
            self._arm_tick(REBALANCE_TICK, self._rebalance.spec.cadence_s, now)
        if request.offline:
            self._register_offline(request)
        elif self._window_s is not None:
            self._collect_window(request, now)
        else:
            self._dispatch_online(request, now)
            contracts.check_request_accounting(self._metrics)

    # ------------------------------------------------------------------
    # dispatch-window batching (the window-lap scheme)
    # ------------------------------------------------------------------
    def _collect_window(self, request: RideRequest, now: float) -> None:
        """Buffer one online release until its dispatch window flushes."""
        self._window_buffer.append(request)
        self._obs.count("window.collected")
        if self._window_s <= 0.0:
            # Degenerate single-request window: flush at the release
            # instant, which reproduces the greedy per-request decisions
            # (the W -> 0 equivalence gate).
            self._flush_window(now)
        else:
            self._arm_tick(WINDOW_TICK, self._window_s, now)
        contracts.check_request_accounting(self._metrics)

    def _arm_tick(self, kind: str, period_s: float, now: float) -> None:
        """Schedule the next ``kind`` boundary (at most one outstanding).

        Boundaries sit on the absolute ``period_s``-grid, not ``now +
        period_s``, so the tick sequence is a function of the workload's
        release times alone, never of internal scheduling order —
        identical in batch and streaming runs.  The protocol table's
        priorities (:mod:`repro.sim.events`) do the rest: a window tick
        fires after any release sharing its instant, so a release
        landing *exactly* on a boundary always enters the closing
        window; a rebalance tick fires after both, so its supply census
        always sees the post-dispatch idle set.  Rebalance ticks are
        armed by releases only, never by their own handler.
        """
        if kind in self._tick_at:
            return
        tick_at = (math.floor(now / period_s) + 1.0) * period_s
        self._tick_at[kind] = tick_at
        self._kernel.schedule(tick_at, kind)

    def _on_window_tick(self, event: Event) -> None:
        """Kernel handler: one dispatch-window boundary."""
        now = event.time
        del self._tick_at[WINDOW_TICK]
        self._boundary(now)
        if self._window_buffer:
            self._flush_window(now)
        if self._window_buffer:
            # Unmatched survivors rolled forward: keep ticking.
            self._arm_tick(WINDOW_TICK, self._window_s, now)
        contracts.check_request_accounting(self._metrics)

    def _flush_window(self, now: float) -> None:
        """Flush the buffered window through the scheme's global matcher.

        Requests already past their pick-up deadline expire without
        being matched; the rest go to ``scheme.match_window`` as one
        batch whose wall time is amortised evenly across its requests
        for the ``sim.dispatch``/response metrics.  Unmatched survivors
        roll into the next window while their deadline allows (never
        with ``W <= 0``, where no further tick would come); otherwise
        they are terminally unserved.
        """
        batch = self._window_buffer
        self._window_buffer = []
        live: list[RideRequest] = []
        for request in batch:
            if now > request.pickup_deadline:
                self._obs.count("window.expired")
                self._record_decision(request, now, None, 0.0, "online")
            else:
                live.append(request)
        if not live:
            return
        t0 = time.perf_counter()  # repro-lint: disable=REP003 reason=response-time metric only, never a decision input
        with self._obs.stage("window.solve"):
            outcomes = self._scheme.match_window(live, now)
        elapsed = time.perf_counter() - t0  # repro-lint: disable=REP003 reason=response-time metric only, never a decision input
        share = elapsed / len(live)
        self._obs.count("window.flushes")
        self._obs.count("window.batched_requests", len(live))
        rollover = self._window_s is not None and self._window_s > 0.0
        for request, result in outcomes:
            self._trace_dispatch(request, now, share, result is not None, False)
            if result is None and rollover and now < request.pickup_deadline:
                self._window_buffer.append(request)
                self._obs.count("window.rolled")
            else:
                self._obs.count("window.unmatched" if result is None else "window.matched")
                self._record_decision(request, now, result, share, "online")

    # ------------------------------------------------------------------
    # proactive repositioning (repro.fleet.rebalance)
    # ------------------------------------------------------------------
    def _on_rebalance_tick(self, event: Event) -> None:
        """Kernel handler: one proactive-repositioning boundary.

        Census the parked idle taxis per partition (and the
        repositioning cruises already in flight, credited to their
        target), ask the policy for moves, and install each move as a
        stop-less cruise plan.  Every step is deterministic: the fleet
        is walked in id order and the planner is pure arithmetic.
        """
        now = event.time
        del self._tick_at[REBALANCE_TICK]
        self._boundary(now)
        policy = self._rebalance
        self._obs.count("rebalance.ticks")
        supply: dict[int, list[int]] = {}
        in_flight: dict[int, int] = {}
        for tid in sorted(self._fleet):
            taxi = self._fleet[tid]
            if taxi.out_of_service or not taxi.idle:
                # Matched or broken since its cruise was installed; the
                # _install/_handle_breakdown hooks already dropped the
                # destination, but a taxi matched while *parked* between
                # ticks never had one — pop unconditionally.
                self._rebalance_dest.pop(tid, None)
                continue
            if taxi.cruising:
                dest = self._rebalance_dest.get(tid)
                if dest is not None:
                    in_flight[dest] = in_flight.get(dest, 0) + 1
                # A demand-seeking cruise (no recorded destination) is
                # left alone: it already chases predicted encounters.
                continue
            if self._rebalance_dest.pop(tid, None) is not None:
                self._obs.count("rebalance.arrived")
            supply.setdefault(policy.partition_of(taxi.loc), []).append(tid)
        with self._obs.stage("rebalance.plan"):
            moves = policy.plan_moves(supply, in_flight, now)
        installed = 0
        for move in moves:
            taxi = self._fleet[move.taxi_id]
            route = policy.cruise_route(taxi.loc, now, move.target)
            if route is None:
                continue
            taxi.set_plan([], route)
            self._rekey(taxi)
            self._rebalance_dest[move.taxi_id] = move.target
            # Re-index: position-grid schemes key idle taxis by vertex,
            # and the cruise will move this one.
            self._scheme.on_taxi_replanned(taxi, now)
            installed += 1
            self._obs.event(
                "rebalance", taxi=move.taxi_id, source=move.source,
                target=move.target, t=now,
            )
        if installed:
            self._obs.count("rebalance.moves", installed)
        contracts.check_request_accounting(self._metrics)

    def _drain(self) -> None:
        """Drive open schedules to completion after the last release.

        Drain ticks are kernel events in fixed steps of
        ``DRAIN_STEP_S``, each clamped to the horizon deadline so the
        final boundary lands *exactly* on the cutoff.  (The pre-kernel
        loop overstepped: ``now += DRAIN_STEP_S`` with a ``now <
        deadline`` guard settled fares up to one full step past the
        advertised horizon whenever the horizon was not a step
        multiple.)  The clock is committed on every tick — it used to
        stay stale at the last release for the whole drain, so the
        monotone-clock contract compared each step against the wrong
        previous value and fault injection read old time.
        """
        # Window ticks can legitimately commit the clock past the last
        # release (the final window's boundary); the drain chain must
        # start from whichever is later or its first tick would be
        # scheduled in the past.
        now = max(self._last_release, self._now)
        deadline = now + DRAIN_HORIZON_S
        if now < deadline and any(not t.idle for t in self._fleet.values()):
            self._kernel.schedule(min(now + DRAIN_STEP_S, deadline), DRAIN_TICK, deadline)
            self._kernel.run()
        self._now = max(self._now, now)

    def _on_drain_tick(self, event: Event) -> None:
        """Kernel handler: one post-release drain step."""
        now = event.time
        deadline: float = event.payload
        self._boundary(now)
        if now < deadline and any(not t.idle for t in self._fleet.values()):
            self._kernel.schedule(min(now + DRAIN_STEP_S, deadline), DRAIN_TICK, deadline)

    def _finish_run(self) -> SimulationMetrics:
        """Flush the queue, drain, close the books (offline sweep, settlement, gauges)."""
        self._kernel.run()
        self._drain()
        now = self._now

        # Requests still buffered in an open dispatch window (a stream
        # cut off before its tick fired) are unserved; without this the
        # request balance does not close.
        for _request in self._window_buffer:
            self._metrics.unserved_online += 1
            self._obs.count("window.unflushed")
        self._window_buffer.clear()

        # Final offline accounting: requests no taxi ever resolved are
        # either expired (deadline passed while waiting at the roadside)
        # or still waiting when the run ended.  Without this sweep the
        # request balance does not close.
        for rid, request in list(self._pending_offline.items()):
            if rid in self._offline_done or rid in self._log.trips:
                continue
            if now > request.pickup_deadline:
                self._metrics.expired_offline += 1
            else:
                self._metrics.unserved_offline += 1
        self._pending_offline.clear()

        # Episodes still open were cut off by the drain horizon with
        # passengers aboard.  Settle them at the cutoff instant so their
        # fares do not silently vanish from the payment aggregates, and
        # count them so the cutoff is visible in the metrics.
        for tid, episode in self._episodes.items():
            if not episode.active:
                continue
            self._settle_episode(self._fleet[tid], episode, self._now)
            episode.active = False
            self._metrics.unsettled_episodes += 1
            self._obs.count("sim.unsettled_episodes")
            self._obs.event("unsettled_episode", taxi=tid, t=self._now)

        obs = self._obs
        # One harvest for every engine counter (spe.cache_*) and every
        # memo: monotone tallies become this run's delta, gauges are
        # reported as-is.
        gauges = self._scheme.engine.STAT_GAUGES | {
            f"{name}_entries" for name, _memo in self._scheme.memos()
        }
        base = self._tally_base
        for key, value in self._tallies().items():
            obs.gauge(key, value if key in gauges else value - base.get(key, 0))
        corridors = self._scheme.network.corridors
        obs.gauge(
            "kernel.subgraph_builds",
            corridors.misses - base.get("kernel.subgraph_misses", 0),
        )
        obs.gauge(
            "kernel.subgraph_memory_bytes",
            sum(sub.memory_bytes() for sub in corridors.values()),
        )
        obs.gauge("kernel.events_processed", self._kernel.events_processed)
        obs.gauge("kernel.events_scheduled", self._kernel.events_scheduled)
        obs.gauge("sim.due_index_entries", len(self._due))
        self._scheme.collect_observability(obs)
        self._metrics.stages = obs.stage_snapshot()
        self._metrics.counters = obs.counter_snapshot()
        obs.close()

        self._metrics.index_memory_bytes = self._scheme.index_memory_bytes()
        self._metrics.wall_time_s = time.perf_counter() - self._wall_start  # repro-lint: disable=REP003 reason=wall_time_s metric only, never a decision input
        self._metrics.check_balance()
        return self._metrics

    # ------------------------------------------------------------------
    # streaming ingestion (the service façade's entry points)
    # ------------------------------------------------------------------
    def stream_begin(self) -> None:
        """Start an incremental run fed by :meth:`stream_submit`.

        Everything from here on — the per-request admit step, the
        kernel, the event boundary, the drain, the final accounting —
        is shared with :meth:`run`, which is what makes batch and
        streamed replays of the same workload bit-identical.
        """
        if self._streaming:
            raise RuntimeError("stream_begin() called twice")
        if self._requests:
            raise RuntimeError(
                "streaming and a constructor workload are mutually exclusive; "
                "construct the simulator with requests=[]"
            )
        self._streaming = True
        self._start_run()

    def stream_submit(self, request: RideRequest) -> None:
        """Accept one request into the event queue.

        The caller (the service façade) has already admitted it; the
        release time must be at or after the committed clock — late
        arrivals are the *caller's* admission decision (reject or
        clamp), by design (:class:`~repro.sim.kernel.ScheduledInPast`).
        The request list is not retained, so memory stays bounded by
        the in-flight queue, not the stream length.
        """
        if not self._streaming:
            raise RuntimeError("stream_submit() before stream_begin()")
        self._admit(request)

    def stream_pump(self, until: float | None = None) -> int:
        """Dispatch queued events (optionally only up to ``until``)."""
        if not self._streaming:
            raise RuntimeError("stream_pump() before stream_begin()")
        return self._kernel.run(until=until)

    def stream_finish(self) -> SimulationMetrics:
        """End the stream: flush the queue, drain, close the books."""
        if not self._streaming:
            raise RuntimeError("stream_finish() before stream_begin()")
        self._streaming = False
        return self._finish_run()

    def record_rejection(self, request: RideRequest, reason: str) -> None:
        """Account one request refused at the service admission boundary.

        The request enters the population counters and its terminal
        ``rejected_*`` bucket in the same breath, so the accounting
        identity (:meth:`SimulationMetrics.check_balance`) closes
        without the dispatcher ever seeing the request.
        """
        self._count_request(request)
        if request.offline:
            self._metrics.rejected_offline += 1
        else:
            self._metrics.rejected_online += 1
        self._obs.count(f"service.rejected.{reason}")
        self._obs.event(
            "rejected", request=request.request_id, reason=reason, t=self._now
        )
