"""Reference implementations the equivalence tests diff production against.

**Fleet advancement.**  Production advances only the taxis its due
index names (``Simulator._advance_all``);
:class:`FullSweepSimulator` is the sweep it replaced — every in-service
taxi, every boundary, fleet order — kept here so it cannot drift into
production.  It also keeps the shock pass production replaced: every
taxi at every boundary of an open shock window, where production looks
again only at the taxis re-keyed since the last boundary
(``Simulator._apply_shock``).

**Probabilistic routing.**  Production evaluates Algorithm 4 once per
(partition, heading sector), per (source, destination, sector), per
(corridor, sector) and per weighted leg (u, v, corridor, sector), and
replays the stored answers, each cruise target drawn from a
per-partition table (``repro.core.routing.ProbabilisticRouter``);
:class:`ReferenceProbabilisticRouter` is the per-leg evaluation it
replaced — the sector-keyed destination cache filled from the first
caller's exact direction, the per-leg psi dict, the scalar weight
closure evaluated over the corridor's vertices, the per-call share
loop and ``rng.choice`` draw, each leg timed hop by hop — verbatim, so
routes can be diffed ``==``.

**Taxi mobility vectors.**  Production reads every destination's
coordinates with one gather (``repro.core.matching.taxi_vector`` /
``taxi_vector_with``); :func:`reference_taxi_vector` and
:func:`reference_taxi_vector_with` are the per-destination reads they
replaced, verbatim, so vectors can be diffed ``==``.

**Landmark direction tests.**  Production fills a source partition's
whole row of Algorithm 2 (``repro.core.partition_filter.filter_row``)
and a partition's destination sets under all seventeen heading sectors
(``repro.core.routing.suitable_rows``) as array expressions;
:func:`reference_filter_partitions` and
:func:`reference_suitable_destinations` are the scalar
``cosine_similarity`` loops they replaced, verbatim, so every list can
be diffed ``==``.

**Restricted Dijkstra.**  Production routes a basic leg inside a
corridor with scipy's C Dijkstra on an induced CSR subgraph
(``repro.network.shortest_path.dijkstra_restricted``), and a
probabilistic leg with an in-tree heap Dijkstra over Python lists,
vertex weights folded into the in-edges
(``repro.core.routing.CorridorGraph.shortest_path``).
:func:`reference_dijkstra` is the adjacency-list heap Dijkstra both
replaced, with the weight added on entering a vertex in the same order,
so costs can be diffed ``==``.  :func:`reference_corridor_path` is the
scipy search the in-tree one replaced (``csgraph.dijkstra`` plus the
predecessor unwind), verbatim; the two agree on costs bit for bit and
on paths wherever the shortest path is unique.  Of equally short paths
scipy keeps the first its Fibonacci heap settles and the in-tree search
the one its ``(distance, local index)`` heap settles first, so on ties
each returns *a* shortest path, not necessarily the same one.

**CSR adjacency.**  ``RoadNetwork`` validates its edges, collapses
parallel ones and builds its sorted CSR arrays in one numpy pass, and
``to_csr`` wraps them; :func:`reference_edge_dict` is the per-edge
Python loop the pass replaced, and :func:`reference_to_csr` the COO
build the arrays replaced.  ``InducedSubgraph`` gathers a corridor's rows
from those arrays; :func:`reference_induced_subgraph` is the scipy
fancy index it replaced.  Both pairs are diffed byte for byte, dtypes
included: the all-pairs table is built from ``to_csr``, so a store
written before stays warm.

**Trace generation.**  Production draws every weighted choice of a
trip as ``bisect_right(cdf, rng.random())`` against tables built once
(``repro.demand.generator.ChengduLikeDemand.generate_hour``);
:class:`ReferenceDemand` is the loop it replaced — five scalar
``rng.choice(k, p=...)`` calls per trip, each weight vector rebuilt and
renormalised on the spot — verbatim, so traces and the generator's RNG
state can be diffed ``==``.

**Window assignment.**  ``solve_window_lap`` masks infeasible cells
with a large penalty and solves one rectangular assignment problem;
:func:`best_partial_matching` enumerates every partial matching of a
small window instead, so "feasible matches first, then least detour"
is checked without trusting the penalty or any solver.

**Partition taxi lists.**  Production keeps ``P_z.L_t`` as one
``(kappa, taxis)`` arrivals matrix that greedy search and the window
screen both read (``repro.index.partition_index.PartitionTaxiIndex``);
:class:`ReferencePartitionIndex` is the per-partition dict index it
replaced, and :func:`reference_candidate_taxis` the greedy walk over
that index's sorted union and arrival maps, reading each taxi's seats,
schedule and position from the object, verbatim, so lists can be
diffed cell for cell and candidate sets in order.  Production gathers
the pool's rows of the fleet table instead
(``repro.core.matching.Matcher.candidate_taxis``).

**Cluster taxi lists.**  Production keeps each taxi's mobility cluster
and direction unit as two columns of
``repro.core.mobility_cluster.MobilityClusterIndex`` laid out like the
arrivals matrix, so ``C_a.L_t`` is ``cluster == a``;
:class:`ReferenceClusterIndex` is the dict-backed taxi side it replaced
(per-taxi cluster and unit dicts, per-cluster taxi sets), which
:func:`reference_candidate_taxis` reads.  :func:`taxi_cells` reads one
taxi's cells back in the reference's terms.

**k-means.**  Production updates every Lloyd centroid with one flat
``bincount`` and draws the k-means++ seeds with ``searchsorted``
(``repro.partitioning.kmeans.kmeans``); :func:`reference_kmeans` is the
per-cluster ``mean`` loop and the ``rng.choice`` draws it replaced,
verbatim, so labels, centres, inertia and iteration counts can be
diffed bit for bit.

**Insertion scoring.**  Production scores insertions through
:func:`repro.fleet.schedule.score_insertions`; the tests diff it
against the textbook enumeration kept in ``repro.fleet.schedule``
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`).  The wrappers that drive
that enumeration over a candidate set or a whole dispatch window live
here so they cannot drift into production.  A dispatch scores its idle
candidates in the pass that reads their fleet-table rows and sends
only busy ones to ``score_insertions``
(``repro.core.matching.score_candidates``);
:func:`reference_score_candidates` is the object path it replaced,
verbatim: :func:`insertion_start` per candidate, one
``score_insertions`` call over all of them, and each taxi's own
``remaining_route_cost``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.analysis import contracts
from repro.core import partition_filter
from repro.core.matching import request_vector
from repro.core.mobility_cluster import (
    DEFAULT_LAMBDA,
    ZERO_UNIT,
    MobilityVector,
    direction_unit,
)
from repro.core.routing import (
    CORRIDOR_EXTRA_HOPS,
    MAX_ATTEMPTS,
    MAX_ENUMERATED_PATHS,
    MIN_PSI,
    ProbabilisticRouter,
    RouteInfeasible,
    compose_route,
)
from repro.core.window import WindowCostMatrix
from repro.demand.generator import (
    WEEKEND_HOURLY_PROFILE,
    WORKDAY_HOURLY_PROFILE,
    ZONE_TYPES,
    ChengduLikeDemand,
    Zone,
    _flow_matrix,
    _origin_weights,
)
from repro.fleet.schedule import (
    Stop,
    arrival_times,
    capacity_ok,
    deadlines_met,
    enumerate_insertions,
    num_insertions,
    score_insertions,
)
from repro.fleet.taxi import TaxiRoute
from repro.network.geo import cosine_similarity
from repro.network.graph import RoadNetworkError
from repro.network.shortest_path import PathNotFound
from repro.sim.engine import Simulator


def reference_dijkstra(network, source, target, allowed=None, vertex_weight=None):
    """Pure-Python heap Dijkstra from ``source`` to ``target``.

    ``allowed`` (``None``: the whole graph) restricts the path; the
    target is always admitted.  ``vertex_weight`` maps a vertex to the
    additive weight charged on entering it (missing vertices cost 0).
    Returns ``(cost, path)``, cost in seconds; raises
    :class:`PathNotFound` when ``target`` is unreachable.
    """
    weights = vertex_weight or {}
    speed = network.speed_mps
    indptr, indices, lengths = network.csr_arrays
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == target:
            path = [u]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        done.add(u)
        for k in range(indptr[u], indptr[u + 1]):
            v, length = int(indices[k]), float(lengths[k])
            if v in done or (allowed is not None and v != target and v not in allowed):
                continue
            # The weight is folded into the edge cost *before* adding to
            # ``d``, the accumulation order of the CSR matrix.
            edge = length / speed if v not in weights else length / speed + weights[v]
            nd = d + edge
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    raise PathNotFound(f"no path from {source} to {target} within the allowed vertex set")


def reference_edge_dict(xy, edges):
    """``RoadNetwork.__init__``'s edge loop as it was: ``{(u, v): length}``
    in first-appearance order, cheapest of parallel edges, raising the
    first invalid edge's error as it reaches it."""
    xy = np.asarray(xy, dtype=np.float64)
    n = xy.shape[0]
    length_of = {}
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            length = None
        elif len(edge) == 3:
            u, v, length = edge
            length = float(length)
        else:
            raise RoadNetworkError(f"edge {edge!r} must be (u, v) or (u, v, length)")
        u = int(u)
        v = int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise RoadNetworkError(f"edge ({u}, {v}) references an unknown vertex")
        if length is None:
            length = float(np.hypot(*(xy[u] - xy[v])))
        if u == v:
            raise RoadNetworkError(f"self loop on vertex {u} is not allowed")
        if length < 0:
            raise RoadNetworkError(f"edge ({u}, {v}) has negative length {length}")
        key = (u, v)
        if key not in length_of or length < length_of[key]:
            length_of[key] = length
    return length_of


def reference_to_csr(network):
    """``RoadNetwork.to_csr`` as it was: a COO build over the edge dict
    in insertion order, which scipy sums and sorts into CSR."""
    n = network.num_vertices
    if network.num_edges == 0:
        return sparse.csr_matrix((n, n))
    rows = np.empty(network.num_edges, dtype=np.int64)
    cols = np.empty(network.num_edges, dtype=np.int64)
    data = np.empty(network.num_edges, dtype=np.float64)
    for i, (u, v, length) in enumerate(network.edges()):
        rows[i] = u
        cols[i] = v
        data[i] = length if length > 0 else 1e-9
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def reference_induced_subgraph(network, allowed):
    """The induced CSR submatrix of ``allowed`` as scipy fancy-indexes it:
    ``(nodes, indptr, indices, lengths_m)``, ``nodes`` sorted."""
    nodes = np.array(sorted(allowed), dtype=np.int64)
    sub = reference_to_csr(network)[nodes][:, nodes].tocsr()
    return nodes, sub.indptr, sub.indices, sub.data


def weighted_matrix(sub, vertex_weight_local):
    """``sub``'s CSR travel-time matrix, ``vertex_weight_local[c]`` folded
    into every edge into ``c`` (``InducedSubgraph.matrix`` as it was)."""
    data = sub.data_s + vertex_weight_local[sub.indices]
    n = sub.nodes.size
    return sparse.csr_matrix((data, sub.indices, sub.indptr), shape=(n, n))


def reference_corridor_path(sub, matrix, source, target):
    """scipy Dijkstra on ``matrix`` plus the predecessor unwind.

    ``matrix`` is a travel-time matrix in ``sub``'s local numbering
    (:func:`weighted_matrix`); ``source`` and ``target`` are global ids
    inside ``sub``.  Returns ``(cost, path)`` and raises
    :class:`PathNotFound` when ``target`` is unreachable.  Ties: a
    distance changes only on a strict improvement, so a vertex keeps the
    predecessor that first reached it with its final distance — first
    in the settle order of scipy's Fibonacci heap, which is not the
    in-tree search's ``(distance, local index)`` order.
    """
    if source == target:
        return 0.0, [source]
    ls = sub.local_of(source)
    lt = sub.local_of(target)
    if ls < 0 or lt < 0:
        raise ValueError(f"{source} -> {target}: both endpoints must lie inside the subgraph")
    dist, pred = csgraph.dijkstra(
        matrix, directed=True, indices=ls, return_predecessors=True
    )
    if not np.isfinite(dist[lt]):
        raise PathNotFound(
            f"no path from {source} to {target} within the allowed vertex set"
        )
    pred_of = pred.tolist()
    local_path = [lt]
    node = lt
    while node != ls:
        node = pred_of[node]
        local_path.append(node)
    local_path.reverse()
    nodes = sub.nodes
    return float(dist[lt]), [int(nodes[i]) for i in local_path]


class FullSweepSimulator(Simulator):
    """A :class:`Simulator` that treats every in-service taxi as due at
    every boundary: the O(fleet) sweep and shock pass, verbatim, as the
    oracle of the due index and of the incremental shock pass."""

    def _advance_all(self, now):
        contracts.check_monotone_clock(self._now, now)
        obs = self._obs
        for taxi in self._fleet.values():
            if taxi.out_of_service:
                continue
            fired_before = taxi.stops_fired_total
            traversed = taxi.advance(now, on_pickup=self._on_pickup, on_dropoff=self._on_dropoff)
            if traversed:
                stops_fired = taxi.stops_fired_total != fired_before
                obs.count("sim.taxi_advances")
                if stops_fired:
                    obs.count("sim.stop_notifications")
                self._scheme.on_taxi_advanced(taxi, now, stops_fired)
                self._scan_encounters(taxi, traversed)
            if taxi.idle:
                self._scheme.maybe_cruise(taxi, now)
        contracts.check_request_accounting(self._metrics)

    def _rekey(self, taxi):
        """No index to maintain."""

    def _apply_shock(self, k, window, now):
        """The fleet-wide shock pass, verbatim: every taxi at every boundary
        of an open window (the ``_rekey`` feed above is empty here)."""
        xy = self._scheme.network.xy
        r2 = window.radius_m * window.radius_m
        shocked = self._shocked
        for tid, taxi in self._fleet.items():
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


def reference_taxi_vector(network, taxi, now):
    """``taxi_vector`` read one destination at a time."""
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


def reference_taxi_vector_with(network, taxi, request, now):
    """``taxi_vector_with`` read one destination at a time."""
    node, _t = taxi.position_at(now)
    ox, oy = network.xy[node]
    dests = [r.destination for r in taxi.onboard.values()]
    dests += [r.destination for r in taxi.assigned.values()]
    dests.append(request.destination)
    xs = sum(float(network.xy[d][0]) for d in dests)
    ys = sum(float(network.xy[d][1]) for d in dests)
    n = len(dests)
    return MobilityVector(float(ox), float(oy), xs / n, ys / n)


def reference_filter_partitions(landmark_xy, landmark_cost, pz, pz1, lam):
    """Algorithm 2 for one (source, destination) pair: the scalar loop
    ``PartitionFilter.filter_partitions`` ran before it filled rows."""
    if pz == pz1:
        return [pz]
    zx, zy = (float(c) for c in landmark_xy[pz])
    z1x, z1y = (float(c) for c in landmark_xy[pz1])
    vx, vy = z1x - zx, z1y - zy
    direct = float(landmark_cost[pz, pz1])
    budget = (1.0 + partition_filter.EPSILON) * direct
    result = []
    for pi in range(len(landmark_xy)):
        if pi == pz or pi == pz1:
            result.append(pi)
            continue
        ix, iy = (float(c) for c in landmark_xy[pi])
        if cosine_similarity(ix - zx, iy - zy, vx, vy) < lam:
            continue
        via = float(landmark_cost[pz, pi]) + float(landmark_cost[pi, pz1])
        if via <= budget:
            result.append(pi)
    return result


def reference_suitable_destinations(landmark_xy, pi, direction, lam):
    """Step 1's suitable destinations of ``P_i`` for one heading: the
    scalar loop over every other partition's landmark."""
    dx, dy = direction
    ix, iy = (float(c) for c in landmark_xy[pi])
    out = []
    for pa in range(len(landmark_xy)):
        if pa == pi:
            continue
        ax, ay = (float(c) for c in landmark_xy[pa])
        if cosine_similarity(ax - ix, ay - iy, dx, dy) >= lam:
            out.append(pa)
    return out


class ReferenceProbabilisticRouter(ProbabilisticRouter):
    """A :class:`ProbabilisticRouter` that evaluates Algorithm 4 afresh
    on every leg and every cruise: the method bodies production had
    before it kept its three tables, verbatim but for step 1's rule
    (the sector-centre heading, the zero vector in a sector of its
    own).  It is built like the production router and shares nothing
    with it after ``__init__`` — the tables it inherits stay empty (the
    tests assert so) and the per-partition arrays are deleted, so any
    read of them fails."""

    def __init__(self, network, engine, partition_filter, transition_model,
                 lam=DEFAULT_LAMBDA, steering_m=120.0):
        super().__init__(network, engine, partition_filter, transition_model,
                         lam, steering_m)
        del self._demand_share, self._hot_vertex, self._cruise_targets, self._suitable
        del self._steering_s
        self._steering_m = max(0.0, float(steering_m))
        self._pd_cache: dict[tuple[int, int], list[int]] = {}

    # ------------------------------------------------------------------
    # step 1: suitability probabilities
    # ------------------------------------------------------------------
    def _suitable_destinations(
        self, pi: int, direction: tuple[float, float]
    ) -> list[int]:
        """Destination partitions making a request from ``pi`` suitable.

        A request hailed in ``P_i`` is suitable when its implied travel
        direction (landmark of ``P_i`` to the destination partition's
        landmark) is aligned with the centre of the taxi's heading
        sector.
        """
        lg = self._filter.landmark_graph
        # Quantise the direction into 16 sectors, the zero vector into a
        # 17th, and evaluate at the sector's centre heading.
        dx, dy = direction
        if dx == 0.0 and dy == 0.0:
            sector = 16
        else:
            sector = int(8.0 * (1.0 + math.atan2(dy, dx) / math.pi)) % 16
            angle = math.pi * ((sector + 0.5) / 8.0 - 1.0)
            dx, dy = math.cos(angle), math.sin(angle)
        key = (pi, sector)
        cached = self._pd_cache.get(key)
        if cached is not None:
            return cached
        landmark_xy = [lg.landmark_xy(z) for z in range(lg.num_partitions)]
        out = reference_suitable_destinations(landmark_xy, pi, (dx, dy), self._lam)
        self._pd_cache[key] = out
        return out

    def partition_probability(self, pi: int, direction: tuple[float, float]) -> float:
        """``pi_i``: probability of meeting a suitable request in ``P_i``."""
        dests = self._suitable_destinations(pi, direction)
        lg = self._filter.landmark_graph
        return self._model.partition_probability(lg.members(pi), dests)

    # ------------------------------------------------------------------
    # step 2: max-weight landmark paths
    # ------------------------------------------------------------------
    def _corridors(
        self,
        retained: list[int],
        pz: int,
        pz1: int,
        weight: dict[int, float],
    ) -> list[list[int]]:
        """Simple landmark paths from ``pz`` to ``pz1`` inside ``retained``,
        sorted by accumulated probability (descending), capped.

        The landmark subgraph is small (the partitions that survive
        filtering), so the paper enumerates all paths; we cap the
        enumeration defensively and keep the best ones.
        """
        lg = self._filter.landmark_graph
        if pz == pz1:
            return [[pz]]
        retained_set = set(retained)

        # BFS hop distances to pz1 bound the DFS depth: corridors much
        # longer than the shortest partition path only burn slack.
        hops = {pz1: 0}
        frontier = [pz1]
        while frontier:
            nxt_frontier: list[int] = []
            for node in frontier:
                for nb in lg.neighbors(node):
                    if nb in retained_set and nb not in hops:
                        hops[nb] = hops[node] + 1
                        nxt_frontier.append(nb)
            frontier = nxt_frontier
        if pz not in hops:
            return []
        max_len = hops[pz] + CORRIDOR_EXTRA_HOPS

        paths: list[tuple[float, list[int]]] = []
        budget = MAX_ENUMERATED_PATHS

        def dfs(node: int, visited: set[int], acc: float, path: list[int]) -> None:
            nonlocal budget
            if budget <= 0:
                return
            if node == pz1:
                budget -= 1
                paths.append((acc, list(path)))
                return
            if len(path) + hops.get(node, max_len) > max_len + 1:
                return
            for nxt in lg.neighbors(node):
                if nxt in retained_set and nxt not in visited and nxt in hops:
                    visited.add(nxt)
                    path.append(nxt)
                    dfs(nxt, visited, acc + weight.get(nxt, 0.0), path)
                    path.pop()
                    visited.remove(nxt)

        dfs(pz, {pz}, weight.get(pz, 0.0), [pz])
        paths.sort(key=lambda p: -p[0])
        return [p for _w, p in paths[:MAX_ATTEMPTS]]

    # ------------------------------------------------------------------
    # step 3: fine-grained vertex-weighted routing
    # ------------------------------------------------------------------
    def _weighted_leg(
        self,
        u: int,
        v: int,
        corridor: list[int],
        direction: tuple[float, float],
    ) -> list[int] | None:
        """Vertex-weighted shortest path inside the corridor partitions."""
        lg = self._filter.landmark_graph
        # The memoised frozenset keys the network's induced-subgraph
        # memo: repeated legs through the same corridor reuse the CSR
        # submatrix.
        allowed = self._filter.corridor_vertices(corridor)
        psi: dict[int, float] = {}
        for pi in corridor:
            dests = self._suitable_destinations(pi, direction)
            for c in lg.members(pi):
                # psi_c: chance of a *suitable* request materialising at
                # c — the accumulated transition probability towards the
                # suitable destinations, weighted by how much pick-up
                # demand c actually generates.
                mass = self._model.mass_to(c, dests)
                demand = self._model.relative_pickup_frequency(c)
                psi[c] = max(mass * demand, MIN_PSI)
        # The paper weights vertex c by 1/psi_c.  Raw reciprocals can be
        # astronomically large for never-observed vertices and would make
        # Dijkstra chase any observed vertex regardless of distance, so
        # we use the bounded equivalent scale * (1 - psi_c / psi_max):
        # minimising it prefers high-psi vertices, discounting up to
        # ``scale`` seconds per hot vertex on top of the travel-time
        # objective.  Normalising by the corridor's peak psi keeps the
        # preference meaningful even when absolute probabilities are
        # tiny (they always are: psi is a per-trip probability).
        psi_max = max(psi.values(), default=MIN_PSI)
        scale = self._network.meters_to_seconds(self._steering_m)

        def weight(c: int) -> float:
            return scale * (1.0 - psi.get(c, 0.0) / psi_max)

        sub = self._network.induced_subgraph(allowed)
        w_local = np.fromiter((weight(int(c)) for c in sub.nodes), np.float64, sub.nodes.size)
        try:
            _cost, path = reference_corridor_path(sub, weighted_matrix(sub, w_local), u, v)
            return path
        except PathNotFound:
            return None

    def partition_demand_share(self, pi: int) -> float:
        """Share of historical pick-up demand generated inside ``P_i``."""
        lg = self._filter.landmark_graph
        cached = getattr(self, "_demand_share", None)
        if cached is None:
            cached = []
            for z in range(lg.num_partitions):
                cached.append(
                    sum(self._model.pickup_frequency(v) for v in lg.members(z))
                )
            self._demand_share = cached
        return cached[pi]

    def cruise_route(
        self,
        start_node: int,
        start_time: float,
        max_duration_s: float = 600.0,
    ) -> TaxiRoute | None:
        """A passenger-seeking cruise for an idle taxi (non-peak mode).

        When online requests are inadequate, a vacant taxi heads for
        the partition with the best demand-per-travel-time trade-off
        and approaches it through demand-hot vertices.  Returns ``None``
        when the taxi already stands in the best partition's hot spot.
        """
        lg = self._filter.landmark_graph
        here = lg.partition_of(start_node)
        candidates: list[int] = []
        scores: list[float] = []
        for pi in range(lg.num_partitions):
            share = self.partition_demand_share(pi)
            if share <= 0.0:
                continue
            travel = lg.landmark_cost(here, pi)
            if travel > max_duration_s:
                continue
            candidates.append(pi)
            scores.append(share / (1.0 + travel / 300.0))
        if not candidates:
            return None
        # Sample the target proportionally to its score instead of
        # taking the argmax: greedy targeting would herd every vacant
        # taxi onto one hotspot and strip coverage everywhere else.
        # The seed is derived from (position, time) so runs stay
        # deterministic.
        rng = np.random.default_rng((start_node * 1_000_003 + int(start_time)) & 0x7FFFFFFF)
        weights = np.asarray(scores)
        weights = weights / weights.sum()
        best_target = int(candidates[rng.choice(len(candidates), p=weights)])
        target_vertex = max(
            lg.members(best_target), key=self._model.pickup_count
        )
        if target_vertex == start_node:
            # Already parked on the hot spot; hop to the runner-up so the
            # taxi keeps sweeping demand instead of standing still.
            neighbors = [z for z in lg.neighbors(best_target)
                         if self.partition_demand_share(z) > 0]
            if not neighbors:
                return None
            nxt = max(neighbors, key=self.partition_demand_share)
            target_vertex = max(lg.members(nxt), key=self._model.pickup_count)
            if target_vertex == start_node:
                return None
            best_target = nxt
        corridor = self._filter.filter_partitions(here, best_target)
        path = self._weighted_leg(start_node, target_vertex, corridor, (0.0, 0.0))
        if path is None or len(path) < 2:
            try:
                path = self._engine.path(start_node, target_vertex)
            except PathNotFound:
                return None
            if len(path) < 2:
                return None
        nodes = [path[0]]
        times = [start_time]
        for u, v in zip(path, path[1:]):
            times.append(times[-1] + self._network.edge_cost(u, v))
            nodes.append(v)
        # A cruise has no schedule stops: stop_positions stays empty.
        return TaxiRoute(nodes=nodes, times=times, stop_positions=[])

    def _plan_probabilistic(
        self,
        start_node: int,
        start_time: float,
        stops: Sequence[Stop],
        taxi_vector: MobilityVector,
    ) -> TaxiRoute:
        direction = taxi_vector.direction
        lg = self._filter.landmark_graph

        # Baseline slack: arrival times if every leg took the shortest path.
        base_times = arrival_times(start_node, start_time, stops, self.cost)
        if not deadlines_met(stops, base_times):
            raise RouteInfeasible("schedule infeasible even with shortest paths")
        # Remaining slack from each leg onwards.
        slack_from = [0.0] * len(stops)
        running = float("inf")
        for k in range(len(stops) - 1, -1, -1):
            running = min(running, stops[k].deadline - base_times[k])
            slack_from[k] = running

        legs: list[list[int]] = []
        node = start_node
        consumed_extra = 0.0
        for k, stop in enumerate(stops):
            shortest_cost = self.cost(node, stop.node)
            budget = slack_from[k] - consumed_extra
            chosen: list[int] | None = None

            pz, pz1 = lg.partition_of(node), lg.partition_of(stop.node)
            retained = self._filter.filter_partitions(pz, pz1)
            weight = {pi: self.partition_probability(pi, direction) for pi in retained}
            for corridor in self._corridors(retained, pz, pz1, weight):
                path = self._weighted_leg(node, stop.node, corridor, direction)
                if path is None:
                    continue
                extra = self._network.path_cost_s(path) - shortest_cost
                if extra <= budget + 1e-9:
                    chosen = path
                    consumed_extra += max(0.0, extra)
                    break
            if chosen is None:
                chosen = self.leg_path(node, stop.node)
                extra = self._network.path_cost_s(chosen) - shortest_cost
                if extra > budget + 1e-9:
                    raise RouteInfeasible(
                        f"no deadline-respecting leg from {node} to {stop.node}"
                    )
                consumed_extra += max(0.0, extra)
            legs.append(chosen)
            node = stop.node

        route = compose_route(self._network, start_node, start_time, legs)
        stop_times = [route.times[i] for i in route.stop_positions]
        if not deadlines_met(stops, stop_times):
            raise RouteInfeasible("probabilistic route misses a deadline")
        return route


class ReferenceDemand(ChengduLikeDemand):
    """A :class:`ChengduLikeDemand` that samples each trip with scalar
    ``rng.choice`` calls: the ``generate_hour`` production had before it
    kept its cumulative tables, and the two samplers it called,
    verbatim.  Zone placement, the affinities and the seed stream are
    the inherited ones; the inherited tables are deleted, so any read of
    them fails."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        del self._vertex_cdf, self._zone_members, self._type_zone_ids, self._affinity_cdf
        self._zone_ids_by_type = {
            zt: [z.zone_id for z in self._zones if z.zone_type == zt] for zt in ZONE_TYPES
        }

    def _sample_vertex_in_zone(self, zone: Zone, rng: np.random.Generator) -> int:
        """Pick a zone vertex with weight decaying by rank from the anchor."""
        m = zone.member_vertices.shape[0]
        weights = (1.0 + np.arange(m)) ** -1.5
        weights /= weights.sum()
        return int(zone.member_vertices[rng.choice(m, p=weights)])

    def _sample_zone_of_type(
        self,
        zone_type: str,
        rng: np.random.Generator,
        origin_zone: Zone | None = None,
    ) -> Zone:
        """Pick a zone of the given type; when an origin zone is known,
        weight the choice by the stable zone-to-zone affinities."""
        ids = self._zone_ids_by_type[zone_type]
        if origin_zone is None or len(ids) == 1:
            return self._zones[ids[int(rng.integers(len(ids)))]]
        weights = self._zone_affinity[origin_zone.zone_id, ids]
        weights = weights / weights.sum()
        return self._zones[ids[int(rng.choice(len(ids), p=weights))]]

    def generate_hour(
        self,
        day: int,
        hour: int,
        weekend: bool = False,
    ) -> list[tuple[float, int, int]]:
        profile = WEEKEND_HOURLY_PROFILE if weekend else WORKDAY_HOURLY_PROFILE
        lam = self._hourly_requests * profile[hour % 24]
        rng = np.random.default_rng(self._rng.integers(2**63) ^ (day * 24 + hour))
        count = int(rng.poisson(lam))
        flows = _flow_matrix(hour % 24, weekend, self._concentration)
        origin_w = _origin_weights(hour % 24, weekend)
        type_index = {zt: i for i, zt in enumerate(ZONE_TYPES)}

        start = (day * 24 + hour) * 3600.0
        times = np.sort(rng.uniform(start, start + 3600.0, size=count))
        trips = []
        for t in times:
            o_type = ZONE_TYPES[int(rng.choice(4, p=origin_w))]
            d_type = ZONE_TYPES[int(rng.choice(4, p=flows[type_index[o_type]]))]
            o_zone = self._sample_zone_of_type(o_type, rng)
            d_zone = self._sample_zone_of_type(d_type, rng, origin_zone=o_zone)
            origin = self._sample_vertex_in_zone(o_zone, rng)
            destination = self._sample_vertex_in_zone(d_zone, rng)
            if origin == destination:
                continue
            trips.append((float(t), origin, destination))
        return trips


def oracle_instances(engine, start, request):
    """``(i, j, stops, last_arrival, feasible)`` per insertion instance."""
    node, ready, pending, onboard, capacity = start
    rows = []
    for i, j, stops in enumerate_insertions(pending, request):
        times = arrival_times(node, ready, stops, engine.cost)
        feasible = capacity_ok(stops, onboard, capacity) and deadlines_met(stops, times)
        rows.append((i, j, stops, times[-1], feasible))
    return rows


def oracle_score_insertions(engine, starts, request):
    """What ``score_insertions`` must return, by scalar enumeration:
    per candidate the first minimum-last-arrival feasible instance."""
    out = []
    for idx, start in enumerate(starts):
        best = None
        for i, j, _stops, last, feasible in oracle_instances(engine, start, request):
            if feasible and (best is None or last < best[1]):
                best = (idx, last, i, j)
        if best is not None:
            out.append(best)
    return out


def insertion_start(taxi, now):
    """``taxi``'s state at ``now`` as a ``score_insertions`` candidate,
    read off the object."""
    node, ready = taxi.position_at(now)
    return node, ready, taxi.pending_stops(), taxi.occupancy, taxi.capacity


def reference_score_candidates(engine, candidates, request, now, obs):
    """``repro.core.matching.score_candidates`` read off the objects:
    every candidate, idle or busy, through one ``score_insertions``
    call, and its remaining route cost from the taxi."""
    starts = [insertion_start(taxi, now) for taxi in candidates]
    obs.count("match.insertions_evaluated", sum(num_insertions(len(s[2])) for s in starts))
    scored = []
    pairs = ([0] * len(starts), range(len(starts)))
    for idx, last, i, j in score_insertions(engine, starts, [request], pairs, obs):
        taxi = candidates[idx]
        _node, ready, pending, _onboard, _capacity = starts[idx]
        detour = (last - ready) - taxi.remaining_route_cost(ready)
        scored.append((detour, taxi, pending, i, j))
    return scored


def scalar_cost_matrix(scheme, batch, now):
    """Per-pair scalar reference for ``WindowLAP.build_cost_matrix``."""
    fleet = scheme.fleet
    cand_lists = [scheme.matcher.candidate_taxis(r, fleet, now) for r in batch]
    taxi_ids = sorted({t.taxi_id for cands in cand_lists for t in cands})
    col_of = {tid: j for j, tid in enumerate(taxi_ids)}
    matrix = WindowCostMatrix(
        requests=list(batch),
        taxi_ids=taxi_ids,
        costs=np.full((len(batch), len(taxi_ids)), np.inf),
        num_candidates=[len(cands) for cands in cand_lists],
        pendings=[fleet[tid].pending_stops() for tid in taxi_ids],
    )
    for i, (request, cands) in enumerate(zip(batch, cand_lists)):
        for taxi in cands:
            start = insertion_start(taxi, now)
            for _idx, last, pi, pj in oracle_score_insertions(scheme.engine, [start], request):
                j = col_of[taxi.taxi_id]
                ready = start[1]
                matrix.costs[i, j] = (last - ready) - taxi.remaining_route_cost(ready)
                matrix.insertions[(i, j)] = (pi, pj)
    return matrix


def best_partial_matching(costs):
    """``(matches, total)`` of the best partial matching of a small
    window, by enumerating every one of them: the most pairs on finite
    cells, then the least total cost.  Independent of any assignment
    solver and of the penalty that ``solve_window_lap`` masks ``+inf``
    with; exponential, so keep windows to about 6 x 6."""
    rows, cols = costs.shape
    best = (0, 0.0)

    def extend(i, used, count, total):
        nonlocal best
        if i == rows:
            if count > best[0] or (count == best[0] and total < best[1]):
                best = (count, total)
            return
        extend(i + 1, used, count, total)
        for j in range(cols):
            if not used >> j & 1 and math.isfinite(costs[i, j]):
                extend(i + 1, used | 1 << j, count + 1, total + costs[i, j])

    extend(0, 0, 0, 0.0)
    return best


class ReferencePartitionIndex:
    """``P_z.L_t`` as one ``taxi -> arrival`` dict per partition."""

    def __init__(self, num_partitions: int) -> None:
        self._by_partition: list[dict[int, float]] = [{} for _ in range(num_partitions)]
        self._partitions_of_taxi: dict[int, set[int]] = {}

    def update_taxi(self, taxi_id: int, partition_arrivals: dict[int, float]) -> None:
        self.remove_taxi(taxi_id)
        touched: set[int] = set()
        for z, t in partition_arrivals.items():
            self._by_partition[z][taxi_id] = float(t)
            touched.add(z)
        if touched:
            self._partitions_of_taxi[taxi_id] = touched

    def remove_taxi(self, taxi_id: int) -> None:
        touched = self._partitions_of_taxi.pop(taxi_id, ())
        for z in touched:
            self._by_partition[z].pop(taxi_id, None)

    def arrival_map(self, partition: int) -> dict[int, float]:
        return self._by_partition[partition]

    def union_taxis(self, partitions) -> list[int]:
        out: set[int] = set()
        for z in partitions:
            out.update(self._by_partition[z])
        return sorted(out)


class ReferenceClusterIndex:
    """The taxi side of ``MobilityClusterIndex`` as dicts: each taxi's
    cluster and direction unit, and each cluster's taxi set ``C_a.L_t``.

    The request side (clusters and their general vectors) is read from
    ``clusters``, the index this one mirrors.  Mirror every
    ``update_taxi`` of it after it runs and every ``remove_request``
    before it runs: a cluster dissolves when its last request leaves.
    """

    def __init__(self, clusters) -> None:
        self._clusters = clusters
        self._taxis: dict[int, set[int]] = {}
        self._cluster_of_taxi: dict[int, int] = {}
        self._taxi_units: dict[int, tuple[float, float, float]] = {}

    def update_taxi(self, taxi_id: int, vec) -> int | None:
        old = self._cluster_of_taxi.pop(taxi_id, None)
        if old is not None and old in self._taxis:
            self._taxis[old].discard(taxi_id)
        best_id: int | None = None
        if vec is None:
            self._taxi_units.pop(taxi_id, None)
        else:
            self._taxi_units[taxi_id] = direction_unit(*vec.direction)
            best_id, best_sim = self._clusters._best_cluster(vec)
            if best_id is not None and best_sim >= self._clusters.lam:
                self._taxis.setdefault(best_id, set()).add(taxi_id)
                self._cluster_of_taxi[taxi_id] = best_id
            else:
                best_id = None
        return best_id

    def remove_request(self, request_id: int) -> None:
        cid = self._clusters.cluster_of_request(request_id)
        if cid is not None and list(self._clusters._clusters[cid].members) == [request_id]:
            for taxi_id in self._taxis.pop(cid, ()):
                self._cluster_of_taxi.pop(taxi_id, None)

    def cluster_of_taxi(self, taxi_id: int) -> int | None:
        return self._cluster_of_taxi.get(taxi_id)

    def taxi_unit(self, taxi_id: int) -> tuple[float, float, float] | None:
        return self._taxi_units.get(taxi_id)


def taxi_cells(index, taxi_id):
    """``(cluster, unit)`` of one taxi from a ``MobilityClusterIndex``'s
    columns, as :class:`ReferenceClusterIndex` answers them: ``None``
    for no cluster or no vector, :data:`ZERO_UNIT` itself for a
    degenerate vector."""
    column = index.column_of[taxi_id]
    cluster = int(index.cluster[column])
    unit = tuple(index.unit[column].tolist())
    if math.isnan(unit[2]):
        unit = None
    elif unit[2] == 0.0:
        unit = ZERO_UNIT
    return (None if cluster == -1 else cluster), unit


def reference_candidate_taxis(matcher, index, clusters, request, fleet, now):
    """``Matcher.candidate_taxis`` over a :class:`ReferencePartitionIndex`
    and a :class:`ReferenceClusterIndex` (no observability counts)."""
    gamma = matcher._search_radius(request)
    ox, oy = matcher._network.xy[request.origin]
    disc_partitions = matcher._lg.partitions_intersecting_disc(float(ox), float(oy), gamma)
    pool = index.union_taxis(disc_partitions)
    if not pool:
        return []

    cindex = matcher._cindex
    lam = cindex.lam
    vec = request_vector(matcher._network, request)
    req_unit = direction_unit(*vec.direction)
    matching_cids = set(cindex.matching_clusters(req_unit))
    cluster_of_taxi = clusters.cluster_of_taxi
    taxi_unit = clusters.taxi_unit

    origin = request.origin
    origin_partition = matcher._lg.partition_of(origin)
    pickup_deadline = request.pickup_deadline
    n_pass = request.num_passengers
    arrival_get = index.arrival_map(origin_partition).get
    fleet_get = fleet.get
    col = matcher._engine.dist_col(origin)
    speed = matcher._network.speed_mps

    screened = []
    exact_rows: list[int] = []
    exact_ready: list[float] = []
    exact_nodes: list[int] = []
    for taxi_id in pool:
        taxi = fleet_get(taxi_id)
        if taxi is None:
            continue
        if taxi.committed + n_pass > taxi.capacity:
            continue
        if taxi.schedule and cluster_of_taxi(taxi_id) not in matching_cids:
            unit = taxi_unit(taxi_id)
            if unit is None:
                continue
            if unit is not ZERO_UNIT and req_unit is not ZERO_UNIT:
                value = (unit[0] * req_unit[0] + unit[1] * req_unit[1]) / (
                    unit[2] * req_unit[2]
                )
                if max(-1.0, min(1.0, value)) < lam:
                    continue
        arrival = arrival_get(taxi_id)
        if arrival is None or arrival > pickup_deadline:
            node, ready = taxi.position_at(now)
            if col is not None:
                if ready + col.item(node) / speed > pickup_deadline:
                    continue
            else:
                exact_rows.append(len(screened))
                exact_nodes.append(node)
                exact_ready.append(ready)
        screened.append(taxi)

    if not exact_rows:
        return screened
    costs = matcher._engine.cost_matrix(exact_nodes, [origin])[:, 0]
    arrivals = np.asarray(exact_ready) + costs
    late: set[int] = set()
    for row, arrival in zip(exact_rows, arrivals):
        if arrival > pickup_deadline:
            late.add(row)
    return [taxi for row, taxi in enumerate(screened) if row not in late]


def reference_kmeans(data, k, seed=0):
    """``repro.partitioning.kmeans.kmeans`` as a per-cluster loop:
    ``rng.choice`` seeding, the squared norms recomputed on every
    assignment, each centroid ``data[labels == j].mean(axis=0)``.
    Returns ``(labels, centers, inertia, iterations)``."""
    from repro.partitioning.kmeans import MAX_ITER, TOL

    def assign(centers):
        sq = (
            (data**2).sum(axis=1)[:, None]
            - 2.0 * data @ centers.T
            + (centers**2).sum(axis=1)[None, :]
        )
        labels = np.argmin(sq, axis=1)
        return labels, np.maximum(sq[np.arange(data.shape[0]), labels], 0.0)

    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            centers[j] = data[int(rng.integers(n))]
            continue
        choice = int(rng.choice(n, p=closest_sq / total))
        centers[j] = data[choice]
        np.minimum(closest_sq, ((data - centers[j]) ** 2).sum(axis=1), out=closest_sq)

    labels, dist_sq = assign(centers)
    inertia = float(dist_sq.sum())
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        new_centers = np.empty_like(centers)
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                worst = int(np.argmax(dist_sq))
                new_centers[j] = data[worst]
                dist_sq[worst] = 0.0
            else:
                new_centers[j] = data[labels == j].mean(axis=0)
        centers = new_centers
        labels, dist_sq = assign(centers)
        new_inertia = float(dist_sq.sum())
        if inertia - new_inertia <= TOL * max(inertia, 1e-12):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, centers, inertia, iterations
