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
   ``requests x taxis`` array expressions, returning for each request
   exactly the set a single-request search returns.
2. **Fill** the rectangular ``requests x taxis`` cost matrix with each
   pair's minimum-detour feasible insertion.  Idle candidates — the
   bulk of every window — are filled for *all* pairs at once from two
   batched :meth:`~repro.network.shortest_path.ShortestPathEngine.cost_matrix`
   gathers (CH bucket many-to-many above the APSP cutover); every
   busy (request, candidate) pair of the window is one row of a single
   :func:`~repro.fleet.schedule.score_insertions` call.  Both fills
   reproduce the scalar per-pair insertion evaluation bit for bit;
   infeasible pairs stay ``+inf``.
3. **Solve** the LAP after masking ``+inf`` to a large finite penalty,
   which makes the optimum maximise the number of feasible matches
   first and minimise total detour second.  The solver is
   :func:`_linear_sum_assignment`, an exact port of scipy's
   ``linear_sum_assignment`` (same answer on every input, pinned in
   ``tests/test_window.py``), so building the scheme imports no scipy;
   rows holding no feasible cell — most of every window — are settled
   in O(1) each.  Rows are in release order and columns in ascending
   taxi id, so tie-breaking is a deterministic function of the matrix
   alone.
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

import numpy as np

from ..config import SystemConfig
from ..demand.request import RideRequest
from ..fleet.schedule import DEADLINE_SLACK_S, Stop, materialize_insertion, score_insertions
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from ..partitioning.bipartite import MapPartitioning
from .matching import MatchResult, WindowScreen
from .mtshare import MTShare
from .routing import RouteInfeasible

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
    rectangular problem with :func:`_linear_sum_assignment` and drops
    penalty pairs.  The solver is deterministic for a given matrix, and
    rows/columns are deterministically ordered by the caller, so
    equal-cost optima always resolve the same way.
    """
    if costs.size == 0:
        return []
    finite = np.isfinite(costs)
    if not bool(finite.any()):
        return []
    masked = np.where(finite, costs, INFEASIBLE_PENALTY)
    rows, cols = _linear_sum_assignment(masked)
    return [
        (int(i), int(j))
        for i, j in zip(rows, cols)
        if bool(finite[i, j])
    ]


def _linear_sum_assignment(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment(matrix)``, ported exactly.

    Crouse's shortest augmenting path algorithm as scipy ships it
    (``rectangular_lsap.cpp``): a matrix with fewer columns than rows
    is solved transposed, rows are augmented in order, each path search
    scans the remaining columns in scipy's order and prefers a free
    column among equal minima, and every dual update is the same float
    operation on the same operands — so the returned ``(rows, cols)``
    are scipy's for every input (``tests/test_window.py`` pins them),
    including the ``ValueError`` on NaN, ``-inf`` and infeasible input.
    A module-level scipy import would cost a ``window-lap`` run about
    0.3 s of set-up for a solve that takes 2 % of the run.
    """
    cost = np.asarray(matrix, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim} array")
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    lowest = cost.min()  # NaN if any entry is NaN
    if lowest != lowest or lowest == -np.inf:
        raise ValueError("matrix contains invalid numeric entries")
    col4row = _augment_rows(np.ascontiguousarray(cost))
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(col4row.size, dtype=np.int64), col4row


def _augment_rows(cost: np.ndarray) -> np.ndarray:
    """Column of each row in the minimum-cost matching of a wide matrix.

    Two exact shortcuts precede scipy's general path search.  A fresh
    row's first scan sees ``cost - v`` (its own dual is still 0): when
    the column it selects is free, the row is settled there.  A row
    whose cells all equal ``c`` scans ``c - v[j]``, which is exactly
    ``c`` on every free column (a free column's dual was never moved)
    and ``>= c`` on the others while every dual is ``<= 0`` — true in
    exact arithmetic, so it is checked, not assumed — and the tie rule
    then picks the lowest-index free column: O(1) per row.

    The general search scans whole rows in natural column order, so a
    scan is a handful of array operations; scipy's swap-remove scan
    order is kept on the side, because only the tie rule reads it.
    Row duals and the assignment are read one scalar at a time and live
    in lists, and a popped column's predecessor row is recovered from
    the kept scans instead of being tracked per scan.
    """
    nr, nc = cost.shape
    inf = np.inf
    u = [0.0] * nr
    v = np.zeros(nc)
    col4row = [-1] * nr
    row4col = [-1] * nc
    assigned = np.zeros(nc, dtype=bool)
    # scipy's scan order: remaining columns, filled in reverse.
    reverse = np.arange(nc - 1, -1, -1)
    first = cost[:, 0]
    constant = ((cost == first[:, None]).all(axis=1) & (first < inf)).tolist()
    lowest_free = 0
    duals_nonpositive = True
    for cur in range(nr):
        if constant[cur] and duals_nonpositive:
            while row4col[lowest_free] >= 0:
                lowest_free += 1
            u[cur] += float(first[cur])
            row4col[lowest_free] = cur
            col4row[cur] = lowest_free
            assigned[lowest_free] = True
            continue
        # First scan of a fresh row (``u[cur]`` is 0), in natural column
        # order: the last free column among the minima in scipy's
        # reverse order is the lowest-index one; with none free, the
        # first is the highest.
        r = cost[cur] - v
        j = int(r.argmin())
        min_val = float(r[j])
        if min_val == inf:
            raise ValueError("cost matrix is infeasible")
        if row4col[j] >= 0:
            j_free = int(np.where(assigned, inf, r).argmin())
            j = j_free if r[j_free] == min_val else nc - 1 - int(r[::-1].argmin())
        if row4col[j] < 0:
            # v[j] -= min_val - spc[j] subtracts 0.0: nothing to do.
            u[cur] += min_val
            row4col[j] = cur
            col4row[cur] = j
            assigned[j] = True
            continue
        # The general search, from the first scan's state.  A column
        # leaves it with cost +inf and scan dual -inf, so every later
        # scan reads +inf there; ``order`` / ``pos_of`` replay scipy's
        # swap-remove scan order, which only the tie rule reads.
        spc = r.copy()
        scan_v = v.copy()
        scans = [(cur, r)]
        order = reverse.copy()
        pos_of = reverse.copy()
        n = nc
        cols: list[int] = []
        col_spc: list[float] = []
        path: dict[int, int] = {}
        while True:
            cols.append(j)
            col_spc.append(min_val)
            # Predecessor: the first scan that reached the final cost
            # (scipy updates on strict improvement only).
            for row, scan in scans:
                if scan[j] == min_val:
                    path[j] = row
                    break
            spc[j] = inf
            scan_v[j] = -inf
            n -= 1
            moved = order[n]
            order[pos_of[j]] = moved
            pos_of[moved] = pos_of[j]
            if row4col[j] < 0:
                break
            i = row4col[j]
            scan = min_val + cost[i]
            scan -= u[i]
            scan -= scan_v
            scans.append((i, scan))
            np.minimum(spc, scan, out=spc)
            j = int(spc.argmin())
            min_val = float(spc[j])
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            # A second argmin with the first minimum masked detects a tie
            # cheaper than listing every minimum.
            spc[j] = inf
            runner_up = float(spc[spc.argmin()])
            spc[j] = min_val
            if runner_up == min_val:
                # The last free column among the minima in scipy's order,
                # else the first of them.
                hits = (spc == min_val).nonzero()[0]
                free = hits[~assigned[hits]]
                if free.size:
                    j = int(free[pos_of[free].argmax()])
                else:
                    j = int(hits[pos_of[hits].argmin()])
        # Dual updates, then flip the path: scipy's order and operands
        # (``scans[k]`` is the row reached through ``cols[k - 1]``).
        u[cur] += min_val
        for k in range(1, len(scans)):
            u[scans[k][0]] += min_val - col_spc[k - 1]
        for c, spent in zip(cols, col_spc):
            v[c] -= min_val - spent
            if v[c] > 0.0:
                duals_nonpositive = False
        assigned[j] = True
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


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
    routes); the window length is ``config.dispatch_window_s``.
    """

    name = "window-LAP"

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        config: SystemConfig,
        partitioning: MapPartitioning,
        landmarks: LandmarkGraph | None = None,
    ) -> None:
        super().__init__(network, engine, config, partitioning, landmarks=landmarks)
        self.name = "window-LAP"
        self.dispatch_window_s = float(config.dispatch_window_s)

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
        with obs.stage("window.fill_idle"):
            self._fill_idle(batch, screen, matrix)
        with obs.stage("window.fill_busy"):
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

        slack = DEADLINE_SLACK_S
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
        """Fill every busy-candidate pair of the window in one scorer call.

        Busy schedules need the general insertion machinery: each
        (request, busy candidate) member pair is one row of a single
        :func:`~repro.fleet.schedule.score_insertions` call, which
        shares the per-taxi state gathered once for the window and
        reads each taxi's schedule and each request once.
        """
        busy = [j for j, start in enumerate(screen.starts) if start[2]]
        if not busy:
            return
        pair_rows, pair_busy = np.nonzero(screen.member[:, busy])
        if not pair_rows.size:
            return
        rows = pair_rows.tolist()
        cols = [busy[k] for k in pair_busy.tolist()]
        starts = [screen.starts[j] for j in cols]
        requests = [batch[i] for i in rows]
        current: dict[int, float] = {}
        for idx, last, pi, pj in score_insertions(self._engine, starts, requests, self._obs):
            i = rows[idx]
            j = cols[idx]
            ready = starts[idx][1]
            cost = current.get(j)
            if cost is None:
                cost = current[j] = screen.taxis[j].remaining_route_cost(ready)
            matrix.costs[i, j] = (last - ready) - cost
            matrix.insertions[(i, j)] = (pi, pj)
        self._obs.count("window.matrix_busy_pairs", len(rows))
