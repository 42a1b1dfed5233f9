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
(partition, heading sector), per (source, destination, sector) and per
(corridor, sector) and replays the stored answers
(``repro.core.routing.ProbabilisticRouter``);
:class:`ReferenceProbabilisticRouter` is the per-leg evaluation it
replaced — the sector-keyed destination cache filled from the first
caller's exact direction, the per-leg psi dict, the scalar weight
closure evaluated over the corridor's vertices, the per-call share
loop — verbatim, so routes can be diffed ``==``.

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

**CSR adjacency.**  ``RoadNetwork`` builds its sorted CSR arrays once,
in numpy, and ``to_csr`` wraps them; :func:`reference_to_csr` is the
COO build it replaced.  ``InducedSubgraph`` gathers a corridor's rows
from those arrays; :func:`reference_induced_subgraph` is the scipy
fancy index it replaced.  Both pairs are diffed byte for byte, dtypes
included: the all-pairs table and the contraction hierarchy are built
from ``to_csr``, so a store written before stays warm.

**Trace generation.**  Production draws every weighted choice of a
trip as ``bisect_right(cdf, rng.random())`` against tables built once
(``repro.demand.generator.ChengduLikeDemand.generate_hour``);
:class:`ReferenceDemand` is the loop it replaced — five scalar
``rng.choice(k, p=...)`` calls per trip, each weight vector rebuilt and
renormalised on the spot — verbatim, so traces and the generator's RNG
state can be diffed ``==``.

**Contraction hierarchy.**  Production contracts an independent vertex
set per round and runs the round's witness searches as batched scipy
Dijkstras with a strict test (``repro.network.ch.ContractionHierarchy.
build``); :func:`reference_ch_build` is the sequential build it
replaced — one vertex at a time by lazy edge difference, one capped
Python witness search per in-neighbour — verbatim.  The two hierarchies
differ (ranks, shortcuts), their answers may not: distances bit for
bit, paths wherever the shortest path is unique, and whole dispatch
runs decision for decision.

**Window assignment.**  ``solve_window_lap`` masks infeasible cells
with a large penalty and solves one rectangular assignment problem;
:func:`best_partial_matching` enumerates every partial matching of a
small window instead, so "feasible matches first, then least detour"
is checked without trusting the penalty or any solver.

**Insertion scoring.**  Production scores insertions through
:func:`repro.fleet.schedule.score_insertions`; the tests diff it
against the textbook enumeration kept in ``repro.fleet.schedule``
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`).  The wrappers that drive
that enumeration over a candidate set or a whole dispatch window live
here so they cannot drift into production.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.analysis import contracts
from repro.core.matching import insertion_start
from repro.core.mobility_cluster import DEFAULT_LAMBDA, MobilityVector
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
)
from repro.fleet.taxi import TaxiRoute
from repro.network.ch import ContractionHierarchy
from repro.network.geo import cosine_similarity
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


class ReferenceProbabilisticRouter(ProbabilisticRouter):
    """A :class:`ProbabilisticRouter` that evaluates Algorithm 4 afresh
    on every leg and every cruise: the method bodies production had
    before it kept its three tables, verbatim.  It is built like the
    production router and shares nothing with it after ``__init__`` —
    the tables it inherits stay empty (the tests assert so) and the
    per-partition arrays are deleted, so any read of them fails."""

    def __init__(self, network, engine, partition_filter, transition_model,
                 lam=DEFAULT_LAMBDA, steering_m=120.0):
        super().__init__(network, engine, partition_filter, transition_model,
                         lam, steering_m)
        del self._demand_share, self._hot_vertex, self._steering_s
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
        landmark) is aligned with the taxi's direction.
        """
        lg = self._filter.landmark_graph
        # Quantise the direction into 16 sectors so the cache is effective.
        dx, dy = direction
        if dx == 0.0 and dy == 0.0:
            sector = 0
        else:
            sector = int(8.0 * (1.0 + math.atan2(dy, dx) / math.pi)) % 16
        key = (pi, sector)
        cached = self._pd_cache.get(key)
        if cached is not None:
            return cached
        ix, iy = lg.landmark_xy(pi)
        out: list[int] = []
        for pa in range(lg.num_partitions):
            if pa == pi:
                continue
            ax, ay = lg.landmark_xy(pa)
            if cosine_similarity(ax - ix, ay - iy, dx, dy) >= self._lam:
                out.append(pa)
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


#: The sequential build's settled-vertex cap per witness search.
WITNESS_SETTLE_CAP = 60


def reference_ch_build(network):
    """``ContractionHierarchy.build`` as it was before contraction in
    rounds: one vertex at a time by lazy edge difference, one Python
    witness Dijkstra per in-neighbour (``<=`` test, ``v`` excluded,
    :data:`WITNESS_SETTLE_CAP`), verbatim."""
    n = network.num_vertices
    csr = network.to_csr()
    indptr = csr.indptr
    cols = csr.indices
    data = csr.data
    # Remaining-graph adjacency: out_[u][v] = in_[v][u] = (weight, mid).
    # Uses the same zero-length nudge as ``to_csr`` (it *is* the CSR
    # data), so rectified sums match the scipy reference exactly.
    out_: list[dict[int, tuple[float, int]]] = [{} for _ in range(n)]
    in_: list[dict[int, tuple[float, int]]] = [{} for _ in range(n)]
    for u in range(n):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        for v, w in zip(cols[lo:hi].tolist(), data[lo:hi].tolist()):
            if v == u:
                continue
            cur = out_[u].get(v)
            if cur is None or w < cur[0]:
                out_[u][v] = (w, -1)
                in_[v][u] = (w, -1)

    rank = np.full(n, -1, dtype=np.int64)
    deleted = [0] * n
    # Neighborhood version: bumped whenever an edge incident to the
    # vertex is added or removed, so shortcut sets (the expensive
    # witness searches) are recomputed only when actually stale.
    version = [0] * n
    shortcut_cache: list[tuple[int, list[tuple[int, int, float]]] | None]
    shortcut_cache = [None] * n
    up_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
    down_rows: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]

    def witness_dists(
        src: int, excluded: int, limit: float, targets: dict[int, int]
    ) -> dict[int, float]:
        """Bounded Dijkstra from ``src`` avoiding ``excluded``.

        Every tentative distance is the length of a real path, i.e. an
        upper bound on the true distance, which is all a witness test
        needs.  Stops as soon as all ``targets`` are settled (the
        common case, long before the settle cap).
        """
        dist: dict[int, float] = {src: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, src)]
        remaining = len(targets) - (1 if src in targets else 0)
        while heap and len(settled) < WITNESS_SETTLE_CAP and remaining > 0:
            d, x = heapq.heappop(heap)
            if x in settled:
                continue
            if d > limit:
                break
            settled[x] = d
            if x in targets:
                remaining -= 1
            for y, (w, _mid) in out_[x].items():
                if y == excluded or y in settled:
                    continue
                nd = d + w
                if nd < dist.get(y, math.inf):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        return dist

    def shortcuts_for(v: int) -> list[tuple[int, int, float]]:
        """Shortcuts (u, w, weight) required if ``v`` were contracted."""
        ins = list(in_[v].items())
        outs = list(out_[v].items())
        needed: list[tuple[int, int, float]] = []
        if not ins or not outs:
            return needed
        max_out = max(w for _t, (w, _m) in outs)
        targets = {t: 0 for t, _wm in outs}
        for u, (w_uv, _mu) in ins:
            dist = witness_dists(u, v, w_uv + max_out, targets)
            for t, (w_vt, _mt) in outs:
                if t == u:
                    continue
                via = w_uv + w_vt
                if dist.get(t, math.inf) <= via:
                    continue  # a witness path avoids v
                needed.append((u, t, via))
        return needed

    def shortcuts_cached(v: int) -> list[tuple[int, int, float]]:
        cached = shortcut_cache[v]
        if cached is not None and cached[0] == version[v]:
            return cached[1]
        needed = shortcuts_for(v)
        shortcut_cache[v] = (version[v], needed)
        return needed

    def priority_of(v: int, num_shortcuts: int) -> int:
        return num_shortcuts - len(in_[v]) - len(out_[v]) + deleted[v]

    heap: list[tuple[int, int]] = []
    for v in range(n):
        heap.append((priority_of(v, len(shortcuts_cached(v))), v))
    heapq.heapify(heap)

    next_rank = 0
    while heap:
        _p, v = heapq.heappop(heap)
        if rank[v] >= 0:
            continue
        needed = shortcuts_cached(v)
        prio = priority_of(v, len(needed))
        # Lazy update: if v no longer has the smallest priority,
        # requeue it with the fresh value and contract the new top.
        if heap and (prio, v) > heap[0]:
            heapq.heappush(heap, (prio, v))
            continue
        rank[v] = next_rank
        next_rank += 1
        for u, (w, mid) in in_[v].items():
            down_rows[v].append((u, w, mid))
            del out_[u][v]
            deleted[u] += 1
            version[u] += 1
        for t, (w, mid) in out_[v].items():
            up_rows[v].append((t, w, mid))
            del in_[t][v]
            deleted[t] += 1
            version[t] += 1
        in_[v].clear()
        out_[v].clear()
        for u, t, weight in needed:
            cur = out_[u].get(t)
            if cur is None or weight < cur[0]:
                out_[u][t] = (weight, v)
                in_[t][u] = (weight, v)
                version[u] += 1
                version[t] += 1

    arrays = ContractionHierarchy._rows_to_arrays(rank, up_rows, down_rows)
    return ContractionHierarchy(network, arrays)
