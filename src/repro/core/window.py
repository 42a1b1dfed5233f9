"""Batch-window global assignment: the ``window-lap`` scheme.

Every other scheme matches greedily, one request at a time, so each
dispatch pays the full per-request Python loop and the batched kernels
(PR 2) and CH many-to-many queries (PR 7) never amortise across
requests.  ``window-lap`` instead collects every online request
released inside a ``W``-second dispatch window and solves the whole
window as one taxi-to-request *linear assignment problem* (Simonetto,
Monteil & Gambella, "Real-time City-scale Ridesharing via Linear
Assignment Problems"):

1. **Prune** each request's candidate taxis through the existing
   partition/mobility-cluster indexes (Eq. 3 plus the three rules,
   unchanged from mT-Share) — the whole window in one
   :meth:`~repro.core.matching.Matcher.screen_window` call, which
   reads every indexed taxi once per flush and evaluates the rules as
   ``requests x taxis`` array expressions (small windows fall back to
   one scalar search per request; the sets are identical).
2. **Fill** the rectangular ``requests x taxis`` cost matrix with each
   pair's minimum-detour feasible insertion.  Idle candidates — the
   bulk of every window — are filled for *all* pairs at once from two
   batched :meth:`~repro.network.shortest_path.ShortestPathEngine.cost_matrix`
   gathers (CH bucket many-to-many above the APSP cutover); each
   request's busy candidates go through one
   :func:`~repro.fleet.schedule.score_insertions` call.  Both fills
   reproduce the scalar per-pair insertion evaluation bit for bit;
   infeasible pairs stay ``+inf``.
3. **Solve** the LAP with ``scipy.optimize.linear_sum_assignment``
   after masking ``+inf`` to a large finite penalty, which makes the
   optimum maximise the number of feasible matches first and minimise
   total detour second.  Rows are in release order and columns in
   ascending taxi id, so tie-breaking is a deterministic function of
   the matrix alone.
4. **Apply** each winning pair through the ordinary
   :class:`~repro.baselines.base.DispatchScheme` plumbing — the LAP
   assigns every taxi at most one new request per window, so plans
   never conflict within a flush.

Single-request windows (``W -> 0``) are delegated to the greedy
matcher, so a zero-width window reproduces mT-Share's per-request
decisions exactly — the equivalence gate of ``tests/test_window.py``.
Unmatched requests are the simulator's concern: it rolls them forward
to the next ``window.tick`` until their pick-up deadline expires.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..config import SystemConfig
from ..demand.request import RideRequest
from ..fleet.schedule import Stop, materialize_insertion, score_insertions
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from ..partitioning.bipartite import MapPartitioning
from .matching import MatchResult, WindowScreen
from .mtshare import MTShare
from .routing import RouteInfeasible

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..demand.prediction import DemandPredictor

#: Finite stand-in for ``+inf`` matrix cells when solving the LAP.
#: Real detours are bounded by the drain horizon (~1e4 s) and a window
#: holds at most a few thousand requests, so any assignment using one
#: fewer penalty cell beats any assignment using one more: the optimum
#: maximises feasible matches first, total detour second.  Sums stay
#: well inside float64's exact-integer range.
INFEASIBLE_PENALTY = 1e12


@dataclass
class WindowCostMatrix:
    """The pruned, filled cost matrix of one dispatch window.

    ``costs[i, j]`` is the estimated minimum detour (seconds) of
    inserting request ``i`` into taxi ``taxi_ids[j]``'s schedule, or
    ``+inf`` when the pair is not a pruned candidate or no insertion is
    feasible.  Rows follow the batch (release) order, columns ascend by
    taxi id.
    """

    requests: list[RideRequest]
    taxi_ids: list[int]
    costs: np.ndarray
    num_candidates: list[int]
    #: Winning insertion indices ``(i, j)`` per feasible busy cell;
    #: idle cells are implicitly ``(0, 1)``, the only instance of an
    #: empty schedule.
    insertions: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: Pending stops per column, gathered once at fill time.
    pendings: list[Sequence[Stop]] = field(default_factory=list)

    def build_stops(self, i: int, j: int) -> list[Stop]:
        """Materialise the winning stop list of pair ``(row i, col j)``."""
        pi, pj = self.insertions.get((i, j), (0, 1))
        return materialize_insertion(self.pendings[j], self.requests[i], pi, pj)


def solve_window_lap(costs: np.ndarray) -> list[tuple[int, int]]:
    """Feasible assignments of the window LAP, in row order.

    Masks ``+inf`` to :data:`INFEASIBLE_PENALTY`, solves the
    rectangular problem with ``scipy.optimize.linear_sum_assignment``
    and drops penalty pairs.  The solver is deterministic for a given
    matrix, and rows/columns are deterministically ordered by the
    caller, so equal-cost optima always resolve the same way.
    """
    if costs.size == 0:
        return []
    finite = np.isfinite(costs)
    if not bool(finite.any()):
        return []
    masked = np.where(finite, costs, INFEASIBLE_PENALTY)
    rows, cols = linear_sum_assignment(masked)
    return [
        (int(i), int(j))
        for i, j in zip(rows, cols)
        if bool(finite[i, j])
    ]


class WindowLAP(MTShare):
    """Whole-window global assignment on top of mT-Share's indexes.

    Inherits mT-Share's partition/cluster indexes, candidate pruning
    and routers wholesale; only the matching step differs.  Immediate
    per-request paths — fault-recovery redispatches and offline street
    hails — still use the inherited greedy :meth:`dispatch` /
    :meth:`try_offline`, so the window only governs first-look online
    matching.

    Parameters match :class:`~repro.core.mtshare.MTShare` (always
    non-probabilistic: a window batch plans plain shortest-path
    routes); ``window_s`` overrides ``config.dispatch_window_s``.
    """

    name = "window-LAP"

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        config: SystemConfig,
        partitioning: MapPartitioning,
        landmarks: LandmarkGraph | None = None,
        window_s: float | None = None,
        demand_predictor: DemandPredictor | None = None,
    ) -> None:
        super().__init__(
            network,
            engine,
            config,
            partitioning,
            probabilistic=False,
            demand_predictor=demand_predictor,
            landmarks=landmarks,
        )
        self.name = "window-LAP"
        self.dispatch_window_s = float(
            config.dispatch_window_s if window_s is None else window_s
        )
        if self.dispatch_window_s < 0:
            raise ValueError("window_s must be non-negative")

    # ------------------------------------------------------------------
    # window matching
    # ------------------------------------------------------------------
    def match_window(
        self, batch: list[RideRequest], now: float
    ) -> list[tuple[RideRequest, MatchResult | None]]:
        """Globally match one window's batch (see the module docstring)."""
        if len(batch) == 1:
            # Single-request window: a 1xT LAP is an argmin, so defer to
            # Algorithm 1's greedy matcher — including its lazy route
            # planning and tie-breaking — which is what makes W -> 0
            # reproduce the greedy per-request decisions bit for bit.
            request = batch[0]
            return [(request, self._matcher.match(request, self._fleet, now))]
        obs = self._obs
        matrix = self.build_cost_matrix(batch, now)
        with obs.stage("window.lap"):
            pairs = solve_window_lap(matrix.costs)
        obs.count("window.lap_solves")
        obs.count("window.lap_assigned", len(pairs))
        assigned = dict(pairs)
        outcomes: list[tuple[RideRequest, MatchResult | None]] = []
        with obs.stage("window.planning"):
            for i, request in enumerate(batch):
                j = assigned.get(i)
                result = None if j is None else self._plan_pair(matrix, i, j, request, now)
                outcomes.append((request, result))
        return outcomes

    def _plan_pair(
        self,
        matrix: WindowCostMatrix,
        i: int,
        j: int,
        request: RideRequest,
        now: float,
    ) -> MatchResult | None:
        """Plan the concrete route of one winning (request, taxi) pair."""
        taxi = self._fleet[matrix.taxi_ids[j]]
        stops = matrix.build_stops(i, j)
        node, ready = taxi.position_at(now)
        try:
            route = self._basic_router.route_for_schedule(node, ready, stops)
        except RouteInfeasible:
            # Treated exactly like "unmatched this window": the request
            # rolls forward (or expires) instead of failing the flush.
            self._obs.count("window.plan_infeasible")
            return None
        return MatchResult(
            taxi_id=taxi.taxi_id,
            stops=tuple(stops),
            route=route,
            detour_cost=route.total_cost() - taxi.remaining_route_cost(ready),
            num_candidates=matrix.num_candidates[i],
            probabilistic=False,
        )

    # ------------------------------------------------------------------
    # cost-matrix construction
    # ------------------------------------------------------------------
    def build_cost_matrix(self, batch: list[RideRequest], now: float) -> WindowCostMatrix:
        """Prune candidates and fill the window's min-detour cost matrix.

        Entries are bit-identical to evaluating each surviving
        ``(request, taxi)`` pair with the scalar insertion oracle
        (``tests/oracles.py`` diffs them).
        """
        obs = self._obs
        # One state read per taxi per window: the screen's columns, their
        # ``insertion_start`` and the membership mask feed both fills.
        screen = self._matcher.screen_window(batch, self._fleet, now)
        num_candidates: list[int] = screen.member.sum(axis=1).tolist()
        obs.count("match.candidates_found", sum(num_candidates))
        costs = np.full(screen.member.shape, np.inf)
        matrix = WindowCostMatrix(
            requests=list(batch),
            taxi_ids=[taxi.taxi_id for taxi in screen.taxis],
            costs=costs,
            num_candidates=num_candidates,
            pendings=[start[2] for start in screen.starts],
        )
        if not screen.taxis:
            return matrix
        with obs.stage("window.matrix"):
            self._fill_idle(batch, screen, matrix)
            self._fill_busy(batch, screen, matrix)
        obs.count("window.matrix_cells", costs.size)
        obs.count("window.matrix_feasible", int(np.isfinite(costs).sum()))
        return matrix

    def _fill_idle(
        self, batch: list[RideRequest], screen: WindowScreen, matrix: WindowCostMatrix
    ) -> None:
        """Bulk-fill every (request, idle-candidate) pair of the window.

        Idle candidates admit exactly one insertion (pick up, then drop
        off), so the whole tier reduces to two batched cost gathers —
        one ``taxi-position x request-origin`` many-to-many matrix and
        the requests' direct legs — plus elementwise deadline/capacity
        masks.  The arithmetic accumulates left to right with the exact
        operations of the scalar :func:`~repro.fleet.schedule.arrival_times`
        walk over the same cached cost entries, so detours and
        feasibility verdicts are bit-identical to the per-pair
        reference.
        """
        idle = [j for j, start in enumerate(screen.starts) if not start[2]]
        if not idle:
            return
        engine = self._engine
        obs = self._obs
        starts = [screen.starts[j] for j in idle]
        nodes = [start[0] for start in starts]
        origins = [r.origin for r in batch]
        # (T_idle, R) pick-up legs in one many-to-many gather; the
        # direct legs are per *request*, not per pair.
        leg_pu = engine.cost_matrix(nodes, origins)
        direct = np.array(
            [engine.cost(r.origin, r.destination) for r in batch], dtype=np.float64
        )
        obs.count("window.bulk_m2m_cells", int(leg_pu.size))
        obs.count("kernel.batched_insertions", 1)

        ready = np.array([start[1] for start in starts], dtype=np.float64)[:, None]
        remaining = np.array(
            [screen.taxis[j].remaining_route_cost(start[1]) for j, start in zip(idle, starts)],
            dtype=np.float64,
        )[:, None]
        t_pu = ready + leg_pu
        t_do = t_pu + direct[None, :]
        detour = (t_do - ready) - remaining

        slack = 1e-9
        pu_deadline = np.array([r.pickup_deadline for r in batch], dtype=np.float64)[None, :]
        do_deadline = np.array([r.deadline for r in batch], dtype=np.float64)[None, :]
        onboard = np.array([start[3] for start in starts], dtype=np.int64)[:, None]
        cap = np.array([start[4] for start in starts], dtype=np.int64)[:, None]
        n_pass = np.array([r.num_passengers for r in batch], dtype=np.int64)[None, :]
        feasible = (
            (t_pu <= pu_deadline + slack)
            & (t_do <= do_deadline + slack)
            & (onboard + n_pass <= cap)
        )

        cols = np.array(idle, dtype=np.intp)
        member = screen.member[:, cols]
        t_idx, r_idx = np.nonzero(member.T & feasible)  # (T_idle, R)
        matrix.costs[r_idx, cols[t_idx]] = detour[t_idx, r_idx]
        obs.count("window.matrix_idle_pairs", int(member.sum()))

    def _fill_busy(
        self, batch: list[RideRequest], screen: WindowScreen, matrix: WindowCostMatrix
    ) -> None:
        """Fill the busy-candidate pairs, one scorer call per request.

        Busy schedules need the general insertion machinery; each
        request's busy candidates go through one
        :func:`~repro.fleet.schedule.score_insertions` call, sharing
        the per-taxi state gathered once for the window.
        """
        busy = [j for j, start in enumerate(screen.starts) if start[2]]
        if not busy:
            return
        engine = self._engine
        obs = self._obs
        member = screen.member[:, busy]
        for i, request in enumerate(batch):
            cols = [busy[k] for k in np.flatnonzero(member[i]).tolist()]
            if not cols:
                continue
            starts = [screen.starts[j] for j in cols]
            for idx, last, pi, pj in score_insertions(engine, starts, request, obs):
                j = cols[idx]
                ready = starts[idx][1]
                matrix.costs[i, j] = (last - ready) - screen.taxis[j].remaining_route_cost(ready)
                matrix.insertions[(i, j)] = (pi, pj)
        busy_pairs = int(member.sum())
        if busy_pairs:
            obs.count("window.matrix_busy_pairs", busy_pairs)
