"""Passenger-taxi matching: candidate searching and taxi scheduling.

This implements Section IV-C of the paper.  For a request ``r_i``:

* **Candidate taxi searching** intersects two index views (Eq. 3): the
  taxis in (or soon arriving at) the map partitions overlapping the
  searching disc around ``o_{r_i}``, and the taxis of the mobility
  clusters aligned with ``r_i``'s travel direction.  Empty taxis inside
  the disc are added, then taxis with no spare capacity and taxis that
  cannot reach the pick-up before its deadline are filtered out.  The
  taxi side of every rule is a column of the scheme's fleet table or
  of the cluster index: one request gathers its pool's rows
  (:meth:`Matcher.candidate_taxis`), and a dispatch window asks the
  same predicates for all its requests at once as ``requests x taxis``
  array expressions (:meth:`Matcher.screen_window`).
* **Taxi scheduling** (Algorithm 1) enumerates every insertion of the
  pick-up/drop-off pair into each candidate's existing stop sequence,
  keeps the feasible instances, and picks the one with the minimum
  detour cost ``omega = cost(R') - cost(R)`` (Eq. 4).

Schedule instances are evaluated with O(1) cached shortest-path costs
(the paper's stated assumption); the concrete route of each candidate's
best instance is then planned by the configured router — basic or
probabilistic — and the final winner is chosen by *actual* route
detour, so probabilistic detours are fully accounted for.  Routes are
planned lazily in ascending estimated-detour order: since a planned
route can never undercut its own shortest-path estimate, planning stops
once the next estimate cannot beat the best actual detour found (and,
as a hard bound, after :data:`MATCH_PLANNING_CUTOFF` successfully
planned candidates once a winner exists).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..demand.request import RideRequest
from ..fleet.schedule import (
    InsertionStart,
    Stop,
    materialize_insertion,
    num_insertions,
    score_insertions,
)
from ..fleet.table import FleetTable
from ..fleet.taxi import Taxi, TaxiRoute
from ..index.partition_index import PartitionTaxiIndex
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from ..obs import NULL, Instrumentation
from .mobility_cluster import (
    MobilityClusterIndex,
    MobilityVector,
    direction_unit,
    misaligned_keys,
)
from .routing import BasicRouter, RouteInfeasible


@dataclass(frozen=True, slots=True)
class MatchResult:
    """A successful passenger-taxi match ready to install on the taxi."""

    taxi_id: int
    stops: tuple[Stop, ...]
    route: TaxiRoute
    detour_cost: float
    num_candidates: int
    probabilistic: bool = False


#: How many candidates Algorithm 1 plans routes for once a winner exists.
#: Planning stops earlier as soon as the next O(1) detour estimate cannot
#: beat the incumbent's actual detour (a planned route never undercuts
#: its own estimate); this cap bounds the worst case.  With a full
#: all-pairs table basic routes equal their estimates and the loop exits
#: after one plan, so the cap only binds for probabilistic or
#: lazily-routed runs.
MATCH_PLANNING_CUTOFF = 4

#: A match plans a probability-seeking route when at least this share of
#: the taxi's seats stays idle once the new passengers board (the
#: paper: half the capacity).
PROBABILISTIC_IDLE_SEATS = 0.5


@dataclass(frozen=True, slots=True)
class WindowScreen:
    """Every request of one dispatch window screened against the fleet.

    ``member[i, j]`` says whether ``taxis[j]`` is in the refined
    candidate set of the window's ``i``-th request (Eq. 3 plus the
    three rules).  Columns are the taxis that are a candidate of at
    least one request, ascending by taxi id; ``rows[j]`` is the fleet
    table row of ``taxis[j]`` and ``starts[j]`` is
    ``insertion_start(taxis[j], now)``, built once per window for the
    surviving columns only and shared with the cost-matrix fill.
    """

    taxis: list[Taxi]
    starts: list[InsertionStart]
    member: np.ndarray
    rows: np.ndarray


def keeps_seats_idle(taxi: Taxi, request: RideRequest) -> bool:
    """Whether ``taxi`` keeps :data:`PROBABILISTIC_IDLE_SEATS` of its
    seats idle after ``request`` boards: the trigger for probabilistic
    routing, for mT-Share_pro and every ``+prob`` baseline alike."""
    idle_after = taxi.capacity - taxi.committed - request.num_passengers
    return idle_after >= taxi.capacity * PROBABILISTIC_IDLE_SEATS


def request_vector(network: RoadNetwork, request: RideRequest) -> MobilityVector:
    """Mobility vector of a request: origin point to destination point."""
    xy = network.xy
    ox, oy = xy[request.origin].tolist()
    dx, dy = xy[request.destination].tolist()
    return MobilityVector(ox, oy, dx, dy)


def taxi_vector(network: RoadNetwork, taxi: Taxi, now: float) -> MobilityVector | None:
    """Mobility vector of a busy taxi (Section IV-B2).

    Points from the taxi's current position to the centroid of the
    destinations of every passenger it is committed to (onboard and
    assigned).  ``None`` for an empty, unassigned taxi — the paper does
    not cluster empty taxis because they have no travel destination.
    """
    requests = list(taxi.onboard.values()) + list(taxi.assigned.values())
    if not requests:
        return None
    node, _t = taxi.position_at(now)
    ox, oy = network.xy[node]
    xs = 0.0
    ys = 0.0
    for r in requests:
        px, py = network.xy[r.destination]
        xs += float(px)
        ys += float(py)
    n = len(requests)
    return MobilityVector(float(ox), float(oy), xs / n, ys / n)


class Matcher:
    """Candidate searching plus minimum-detour scheduling for mT-Share.

    Parameters
    ----------
    network, engine:
        Road network and cached shortest-path engine.
    landmark_graph:
        Partition geometry used to map the searching disc to partitions.
    partition_index:
        ``P_z.L_t`` lists with taxi arrival times.
    cluster_index:
        Mobility clusters with their taxi lists ``C_a.L_t``.
    config:
        System parameters (the searching range ``gamma`` and whether
        it adapts to each request's waiting budget).
    basic_router:
        Router used to build concrete routes for non-probabilistic
        matches.
    probabilistic_router:
        Router used when a match should seek offline requests; optional.
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        landmark_graph: LandmarkGraph,
        partition_index: PartitionTaxiIndex,
        cluster_index: MobilityClusterIndex,
        config: SystemConfig,
        basic_router: BasicRouter,
        probabilistic_router: BasicRouter | None = None,
    ) -> None:
        self._network = network
        self._engine = engine
        self._lg = landmark_graph
        self._pindex = partition_index
        self._cindex = cluster_index
        self._config = config
        self._basic = basic_router
        self._prob = probabilistic_router
        self._table = FleetTable([])
        self._obs: Instrumentation = NULL

    def instrument(self, obs: Instrumentation) -> None:
        """Attach an observability registry (``repro.obs``)."""
        self._obs = obs

    # ------------------------------------------------------------------
    # candidate searching
    # ------------------------------------------------------------------
    def _search_radius(self, request: RideRequest) -> float:
        """The searching range ``gamma`` of one request, in metres."""
        if self._config.mtshare_adaptive_gamma:
            # Eq. 2: the searching range is exactly the reachability
            # radius of the request's waiting budget, so inbound taxis
            # beyond any static range (Fig. 1's taxi t3) are visible.
            return max(0.0, request.max_wait) * self._network.speed_mps
        return self._config.search_range_m

    def use_table(self, table: FleetTable) -> None:
        """Read the taxi side of candidate searching from ``table``,
        whose row ``k`` is column ``k`` of both indexes (the layout
        ``MTShare.register_fleet`` builds)."""
        self._table = table

    def candidate_taxis(
        self,
        request: RideRequest,
        fleet: dict[int, Taxi],
        now: float,
    ) -> list[Taxi]:
        """The refined candidate set ``T_{r_i}`` (Eq. 3 plus the 3 rules).

        Every single-request path (greedy :meth:`match`, ``W -> 0``
        windows, redispatch) searches through here, and
        :meth:`screen_window` must return exactly these taxis in this
        order for each request of a window.  The pool is the columns
        some disc partition lists, ascending by taxi id; the rules read
        the pool's rows of the fleet table (:meth:`use_table`) and of
        the cluster index, gathered once per dispatch, so ``fleet``,
        which holds the table's taxis, is not read.
        """
        gamma = self._search_radius(request)
        xy = self._network.xy
        ox, oy = xy[request.origin].tolist()
        disc_partitions = self._lg.partitions_intersecting_disc(ox, oy, gamma)
        pindex = self._pindex
        pool = pindex.listed_columns(disc_partitions)
        if not pool.size:
            return []
        table = self._table
        origin = request.origin
        pickup_deadline = request.pickup_deadline
        # Full mode answers Rule 3's exact bound from the distance
        # column into the pick-up vertex; lazy mode asks one batched
        # cost-matrix query.
        col = self._engine.dist_col(origin)

        # Rule 2: enough seats not yet promised.  (First: one compare
        # per row; the rules are independent filters, so the surviving
        # set is the same in any order.)
        keep = table.spare.take(pool) >= request.num_passengers

        # Rule 1: empty taxis in the disc partitions always qualify.
        # Busy taxis must travel the request's way: either their
        # mobility cluster is aligned, or — since clusters assign each
        # taxi to a single best cluster and can therefore miss
        # borderline cases — their own mobility vector is.
        busy = (keep & table.busy.take(pool)).nonzero()[0]
        if busy.size:
            cindex = self._cindex
            dx, dy = xy[request.destination].tolist()
            # ``request_vector``'s direction, without building the vector.
            req_unit = direction_unit(dx - ox, dy - oy)
            matching = set(cindex.matching_clusters(req_unit))
            clusters = cindex.cluster.take(pool.take(busy)).tolist()
            misses = [k for k, cid in zip(busy.tolist(), clusters) if cid not in matching]
            if misses:
                units = cindex.unit.take(pool.take(misses), axis=0).tolist()
                keep[misaligned_keys(misses, units, req_unit, cindex.lam)] = False

        # Rule 3: must reach the pick-up before its deadline.  The
        # indexed arrival at the origin's partition admits; the rest get
        # the exact shortest-path bound (a taxi whose planned route
        # arrives late can still divert).  ``NaN <= x`` is False, so an
        # unlisted taxi takes the exact bound too.
        arrival = pindex.arrivals[self._lg.partition_of(origin)].take(pool)
        pending = (keep & ~(arrival <= pickup_deadline)).nonzero()[0]
        if pending.size:
            self._obs.count("kernel.batched_reach_checks", int(pending.size))
            rows = pool.take(pending)
            nodes = table.plan_vertex.take(rows)
            if col is not None:
                legs = col.take(nodes) / self._network.speed_mps
            else:
                legs = self._engine.cost_matrix(nodes, [origin])[:, 0]
            keep[pending[table.ready(now, rows) + legs > pickup_deadline]] = False
        taxis = table.taxis
        return [taxis[row] for row in pool[keep].tolist()]

    def screen_window(
        self,
        batch: Sequence[RideRequest],
        table: FleetTable,
        now: float,
    ) -> WindowScreen:
        """:meth:`candidate_taxis` for every request of a window at once.

        Row ``i`` of ``screen.member`` selects, from ``screen.taxis``,
        ``candidate_taxis(batch[i], fleet, now)`` taxi for taxi, where
        ``fleet`` holds ``table``'s taxis.  The taxi side of every rule
        is a column of the fleet table (planning position, seats, busy
        flag), of the partition index's ``P_z.L_t`` arrivals, or of the
        cluster index (cluster, direction unit) — one layout: table row
        ``k`` is column ``k`` of both indexes — kept current where the
        state changes, so the pool and the three rules
        become ``(R, T)`` boolean / float64 expressions and the only
        per-taxi Python work is the surviving columns' insertion starts.
        Every float operation is :meth:`candidate_taxis`'s, on the same
        operands in the same association — request units still come
        from the scalar :func:`direction_unit` and disc verdicts from
        the memoised ``np.hypot`` distances — so the surviving sets are
        identical, not merely close.  Nothing outlives the call.
        """
        with self._obs.stage("window.screen"):
            lg = self._lg
            xy = self._network.xy
            arrivals = self._pindex.arrivals
            origins = np.array([r.origin for r in batch], dtype=np.int64)
            deadline = np.array([r.pickup_deadline for r in batch], dtype=np.float64)
            n_pass = np.array([r.num_passengers for r in batch], dtype=np.int64)
            shape = (len(batch), len(table.taxis))
            self._obs.count("window.screened_pairs", shape[0] * shape[1])

            # Eq. 3, left side: a taxi is in a request's pool when some
            # partition of the request's searching disc lists it — an OR
            # over partitions, eight to a byte.
            origin_xy = xy[origins]
            in_disc = lg.disc_partition_mask(
                origin_xy.tolist(), [self._search_radius(r) for r in batch]
            )
            disc_bits = np.packbits(in_disc, axis=1)
            listed_bits = np.packbits(~np.isnan(arrivals), axis=0)
            keep = np.zeros(shape, dtype=bool)
            for byte in range(listed_bits.shape[0]):
                keep |= (disc_bits[:, byte, None] & listed_bits[byte]) != 0

            # Rule 2: enough seats not yet promised.
            keep &= n_pass[:, None] <= table.spare

            # Rule 1: busy taxis must travel the request's way.  Request
            # units come from the scalar ``direction_unit`` (``math.hypot``;
            # ``np.hypot`` differs in the last ULP on some inputs).
            directions = (xy[[r.destination for r in batch]] - origin_xy).tolist()
            request_units = np.array([direction_unit(dx, dy) for dx, dy in directions])
            busy = np.flatnonzero(table.busy)
            cindex = self._cindex
            keep[:, busy] &= cindex.alignment_mask(
                request_units, cindex.cluster[busy], cindex.unit[busy]
            )

            # Rule 3: the indexed arrival at the origin's partition admits;
            # the pairs it cannot admit (not listed compares as NaN) get the
            # exact bound, from one cost-matrix query over just the taxis
            # and requests that still have such a pair.
            pending = keep & ~(arrivals[lg.partition_of_many(origins)] <= deadline[:, None])
            checks = int(np.count_nonzero(pending))
            if checks:
                self._obs.count("kernel.batched_reach_checks", checks)
                rows = np.flatnonzero(pending.any(axis=1))
                cols = np.flatnonzero(pending.any(axis=0))
                legs = self._engine.cost_matrix(table.plan_vertex[cols], origins[rows])
                late = np.zeros(shape, dtype=bool)
                arrive = table.ready(now, cols)[:, None] + legs
                late[np.ix_(rows, cols)] = (arrive > deadline[rows]).T
                keep &= ~(pending & late)

            used = np.flatnonzero(keep.any(axis=0))
            survivors = [table.taxis[j] for j in used.tolist()]
            starts: list[InsertionStart] = [
                (node, at, taxi.pending_stops(), taxi.occupancy, taxi.capacity)
                for taxi, node, at in zip(
                    survivors, table.plan_vertex[used].tolist(), table.ready(now, used).tolist()
                )
            ]
            return WindowScreen(survivors, starts, keep[:, used], used)

    # ------------------------------------------------------------------
    # taxi scheduling (Algorithm 1)
    # ------------------------------------------------------------------
    def match(
        self,
        request: RideRequest,
        fleet: dict[int, Taxi],
        now: float,
    ) -> MatchResult | None:
        """Full Algorithm 1: search candidates, pick the min-detour taxi.

        Returns ``None`` when no taxi can feasibly serve the request.
        """
        obs = self._obs
        with obs.stage("match.candidates"):
            candidates = self.candidate_taxis(request, fleet, now)
        obs.count("match.candidates_found", len(candidates))
        if not candidates:
            return None

        # Evaluate every candidate's best insertion with O(1) cached
        # costs, batched across the whole candidate set; minimum detour
        # first, taxi id breaking ties.
        with obs.stage("match.insertion"):
            scored = score_candidates(self._engine, candidates, request, now, obs)
            scored.sort(key=lambda item: (item[0], item[1].taxi_id))

        # Plan concrete routes lazily in estimated-detour order and keep
        # the minimum *actual* route detour.  A planned route's legs are
        # at best shortest paths, so actual >= estimate per candidate:
        # once the next estimate cannot beat the incumbent's actual
        # detour, no later candidate can win and planning stops.  The
        # cutoff additionally bounds how many successfully planned
        # candidates are examined after a winner exists.
        cutoff = MATCH_PLANNING_CUTOFF
        best_result: MatchResult | None = None
        planned = 0
        with obs.stage("match.planning"):
            for est_detour, taxi, pending, i, j in scored:
                if best_result is not None and (
                    est_detour >= best_result.detour_cost - 1e-9 or planned >= cutoff
                ):
                    break
                stops = materialize_insertion(pending, request, i, j)
                node, ready = taxi.position_at(now)
                use_prob = self._prob is not None and keeps_seats_idle(taxi, request)
                route = None
                if use_prob:
                    vec = taxi_vector_with(self._network, taxi, request, now)
                    try:
                        route = self._prob.route_for_schedule(
                            node, ready, stops, taxi_vector=vec
                        )
                    except RouteInfeasible:
                        use_prob = False
                if route is None:
                    try:
                        route = self._basic.route_for_schedule(node, ready, stops)
                        use_prob = False
                    except RouteInfeasible:
                        continue
                planned += 1
                actual_detour = route.total_cost() - taxi.remaining_route_cost(ready)
                if best_result is None or actual_detour < best_result.detour_cost:
                    best_result = MatchResult(
                        taxi_id=taxi.taxi_id,
                        stops=tuple(stops),
                        route=route,
                        detour_cost=actual_detour,
                        num_candidates=len(candidates),
                        probabilistic=use_prob,
                    )
        obs.count("match.routes_planned", planned)
        return best_result


def insertion_start(taxi: Taxi, now: float) -> InsertionStart:
    """``taxi``'s state at ``now`` as a :func:`score_insertions` candidate."""
    node, ready = taxi.position_at(now)
    return node, ready, taxi.pending_stops(), taxi.occupancy, taxi.capacity


def score_candidates(
    engine: ShortestPathEngine,
    candidates: Sequence[Taxi],
    request: RideRequest,
    now: float,
    obs: Instrumentation,
) -> list[tuple[float, Taxi, Sequence[Stop], int, int]]:
    """Best feasible insertion per candidate, for a whole dispatch.

    One :func:`score_insertions` call over every candidate.  Returns
    ``(detour, taxi, pending, i, j)`` in candidate order for each
    candidate that admits a feasible instance; ``detour`` is Eq. 4,
    ``cost(R') - cost(R)``, and ``materialize_insertion(pending,
    request, i, j)`` is the winning stop list, so only the few
    candidates that reach route planning pay for building it.
    """
    starts = [insertion_start(taxi, now) for taxi in candidates]
    obs.count("match.insertions_evaluated", sum(num_insertions(len(s[2])) for s in starts))
    scored: list[tuple[float, Taxi, Sequence[Stop], int, int]] = []
    pairs = ([0] * len(starts), range(len(starts)))
    for idx, last, i, j in score_insertions(engine, starts, [request], pairs, obs):
        taxi = candidates[idx]
        _node, ready, pending, _onboard, _capacity = starts[idx]
        detour = (last - ready) - taxi.remaining_route_cost(ready)
        scored.append((detour, taxi, pending, i, j))
    return scored


def best_insertion_for_taxi(
    engine: ShortestPathEngine,
    taxi: Taxi,
    request: RideRequest,
    now: float,
    obs: Instrumentation,
) -> tuple[float, list[Stop]] | None:
    """Minimum-detour feasible insertion into one specific taxi.

    The one-candidate case of :func:`score_insertions`, shared by every
    scheme's offline-encounter path.  Returns ``(last_arrival, stops)``
    or ``None`` when the taxi has no spare seat or no instance is
    feasible.
    """
    if taxi.committed + request.num_passengers > taxi.capacity:
        return None
    start = insertion_start(taxi, now)
    pending = start[2]
    obs.count("match.insertions_evaluated", num_insertions(len(pending)))
    scored = score_insertions(engine, [start], [request], ([0], [0]), obs)
    if not scored:
        return None
    _idx, last, i, j = scored[0]
    return last, materialize_insertion(pending, request, i, j)


def taxi_vector_with(
    network: RoadNetwork,
    taxi: Taxi,
    request: RideRequest,
    now: float,
) -> MobilityVector:
    """Taxi mobility vector *after* hypothetically accepting ``request``.

    Probabilistic routing plans for the taxi's direction including the
    new passenger's destination.
    """
    node, _t = taxi.position_at(now)
    ox, oy = network.xy[node]
    dests = [r.destination for r in taxi.onboard.values()]
    dests += [r.destination for r in taxi.assigned.values()]
    dests.append(request.destination)
    xs = sum(float(network.xy[d][0]) for d in dests)
    ys = sum(float(network.xy[d][1]) for d in dests)
    n = len(dests)
    return MobilityVector(float(ox), float(oy), xs / n, ys / n)
