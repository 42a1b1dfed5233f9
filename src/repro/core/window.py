"""Batch-window global assignment: the ``window-lap`` scheme.

Every other scheme matches greedily, one request at a time, so each
dispatch pays the full per-request Python loop and the batched kernels
never amortise across requests.  ``window-lap`` instead collects every
online request released inside a ``W``-second dispatch window and
solves the whole window as one taxi-to-request *linear assignment
problem* (Simonetto, Monteil & Gambella, "Real-time City-scale
Ridesharing via Linear Assignment Problems"):

1. **Prune** each request's candidate taxis through the existing
   partition/mobility-cluster indexes (Eq. 3 plus the three rules,
   unchanged from mT-Share) — the whole window in one
   :meth:`~repro.core.matching.Matcher.screen_window` call, which
   evaluates the rules as ``requests x taxis`` array expressions over
   the scheme's :class:`~repro.fleet.table.FleetTable` (taxi state as
   columns, written where it changes), returning for each request
   exactly the set a single-request search returns.
2. **Fill** the rectangular ``requests x taxis`` cost matrix with each
   pair's minimum-detour feasible insertion: every screened
   (request, candidate) pair of the window, idle or busy, is one row
   of a single :func:`~repro.fleet.schedule.score_insertions` call,
   indexed into the window's distinct taxis and requests.
   The fill reproduces the scalar per-pair insertion evaluation bit
   for bit; infeasible and unscreened pairs stay ``+inf``.
3. **Solve** the LAP over the rows and columns that hold a feasible
   cell — a small corner of every window — after masking ``+inf`` to
   a large finite penalty, which makes the optimum maximise the number
   of feasible matches first and minimise total detour second.  The
   solver is :func:`_linear_sum_assignment`, an exact port of scipy's
   ``linear_sum_assignment`` (same answer on every input, pinned in
   ``tests/test_window.py``), so building the scheme imports no scipy.
   Rows are in release order and columns in ascending taxi id, so
   tie-breaking is a deterministic function of the feasible cells
   alone: a request or taxi no pair can use does not move it.
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

from ..analysis import contracts
from ..config import SystemConfig
from ..demand.request import RideRequest
from ..fleet.schedule import Stop, materialize_insertion, score_insertions
from ..fleet.table import FleetTable
from ..fleet.taxi import Taxi
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from ..partitioning.bipartite import MapPartitioning
from .matching import MatchResult
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
    #: Pending stops per column, gathered once at fill time.
    pendings: list[Sequence[Stop]] = field(default_factory=list)
    #: Winning insertion indices ``(i, j)`` of every feasible cell, at
    #: ``insertions[row, col]``.
    insertions: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.insertions = np.zeros(self.costs.shape + (2,), dtype=np.int64)

    def build_stops(self, i: int, j: int) -> list[Stop]:
        """Materialise the winning stop list of pair ``(row i, col j)``."""
        pi, pj = self.insertions[i, j].tolist()
        return materialize_insertion(self.pendings[j], self.requests[i], pi, pj)


def solve_window_lap(costs: np.ndarray) -> list[tuple[int, int]]:
    """Feasible assignments of the window LAP, in row order.

    Hands :func:`_linear_sum_assignment` only the rows and columns that
    hold a finite cell, with ``+inf`` masked to
    :data:`INFEASIBLE_PENALTY`, maps the pairs back and drops penalty
    pairs.  A row or column no pair can use therefore cannot move the
    answer, and the solver is deterministic for a given matrix, so
    equal-cost optima resolve the same way whatever infeasible rows or
    columns the window also holds.
    """
    finite = np.isfinite(costs)
    rows = np.flatnonzero(finite.any(axis=1))
    if not rows.size:
        return []
    cols = np.flatnonzero(finite.any(axis=0))
    keep = np.ix_(rows, cols)
    usable = finite[keep]
    picked_rows, picked_cols = _linear_sum_assignment(
        np.where(usable, costs[keep], INFEASIBLE_PENALTY)
    )
    return [
        (int(rows[i]), int(cols[j]))
        for i, j in zip(picked_rows, picked_cols)
        if bool(usable[i, j])
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

    One exact shortcut precedes scipy's general path search: a fresh
    row's first scan sees ``cost - v`` (its own dual is still 0), and
    when the column it selects is free, the row is settled there.

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
    for cur in range(nr):
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
        self.dispatch_window_s = float(config.dispatch_window_s)
        self._table = FleetTable({})

    def register_fleet(self, fleet: dict[int, Taxi], now: float) -> None:
        """Build the fleet table, attach the cluster index to it, then
        register and index the fleet."""
        self._table = FleetTable(fleet)
        self._cindex.attach(self._table)
        super().register_fleet(fleet, now)

    def check_fleet_table(self) -> None:
        """mT-Share's index contract, plus every fleet-table column
        against the state it mirrors and the table's row order against
        the partition index's columns."""
        super().check_fleet_table()
        contracts.check_fleet_table(self._table, self._cindex, self._pindex)

    def index_memory_bytes(self) -> int:
        """Both index views plus the fleet table."""
        return super().index_memory_bytes() + self._table.memory_bytes()

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

        Every screened (request, candidate) pair, idle or busy, is one
        row of a single :func:`~repro.fleet.schedule.score_insertions`
        call: the screen's per-column starts, the batch, and the
        membership mask's ``np.nonzero`` as the pair index, so no
        per-row list is built; an empty schedule is just a row with no
        pending stops.
        Entries are bit-identical to evaluating each pair with the
        scalar insertion oracle (``tests/oracles.py`` diffs them).
        """
        obs = self._obs
        table = self._table
        screen = self._matcher.screen_window(batch, table, now)
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
        with obs.stage("window.fill"):
            pair_rows, pair_cols = np.nonzero(screen.member)
            scored = score_insertions(
                self._engine, screen.starts, batch, (pair_rows, pair_cols), obs
            )
            if scored:
                idx, last, pi, pj = (np.array(column) for column in zip(*scored))
                rows = pair_rows[idx]
                cols = pair_cols[idx]
                ready = table.ready(now, screen.rows)
                current = table.remaining_route_cost(screen.rows, ready)
                costs[rows, cols] = (last - ready[cols]) - current[cols]
                matrix.insertions[rows, cols, 0] = pi
                matrix.insertions[rows, cols, 1] = pj
        obs.count("window.matrix_pairs", pair_rows.size)
        obs.count("window.matrix_cells", costs.size)
        obs.count("window.matrix_feasible", int(np.isfinite(costs).sum()))
        return matrix
