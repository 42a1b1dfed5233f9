"""Segment-level route planning: basic and probabilistic routing.

mT-Share plans a taxi route for a schedule instance leg by leg (every
consecutive stop pair), in two phases (Section IV-C2):

1. **Partition filtering** (Algorithm 2) prunes the road graph to the
   partitions roughly along the leg.
2. **Segment-level routing** finds the leg path inside the pruned
   subgraph.  *Basic routing* (Algorithm 3) takes the shortest path.
   *Probabilistic routing* (Algorithm 4) instead maximises the chance
   of encountering *suitable offline requests*: it scores each retained
   partition by the probability that trips hailed there head the taxi's
   way, picks the max-weight landmark path between the leg's endpoint
   partitions, and runs a vertex-weighted Dijkstra (weight ``1/psi_c``)
   inside that partition corridor — retrying with the next-best
   corridor (at most five attempts) whenever the resulting leg would
   break a passenger deadline.

Both modes return a :class:`~repro.fleet.taxi.TaxiRoute` whose times
are true travel times, so deadline bookkeeping downstream is exact.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..fleet.schedule import Stop, arrival_times, deadlines_met
from ..fleet.taxi import TaxiRoute
from ..memo import BoundedMemo
from ..network.geo import cosine_table
from ..network.graph import InducedSubgraph, RoadNetwork
from ..network.shortest_path import PathNotFound, ShortestPathEngine, dijkstra_restricted
from ..obs import NULL, Instrumentation
from ..partitioning.transition import TransitionModel
from .mobility_cluster import DEFAULT_LAMBDA, MobilityVector
from .partition_filter import PartitionFilter

#: Floor applied to psi_c so 1/psi_c vertex weights stay finite.
MIN_PSI = 1e-6

#: Cap on the number of landmark paths enumerated per corridor search.
MAX_ENUMERATED_PATHS = 400

#: Corridors a leg tries, best first, before giving up (the paper: 5).
MAX_ATTEMPTS = 5

#: Extra partition hops allowed beyond the minimum when enumerating
#: corridors; longer corridors only waste deadline slack.
CORRIDOR_EXTRA_HOPS = 3

#: Heading sectors (22.5 degrees each) probabilistic routing quantises
#: a taxi's travel direction into; the zero vector (a cruise's) is
#: sector ``NUM_SECTORS``, one of its own.
NUM_SECTORS = 16

#: (source partition, destination partition, sector) corridor lists a
#: :class:`ProbabilisticRouter` keeps (at most five short tuples each).
CORRIDOR_LIST_CACHE_SIZE = 4096

#: (corridor, sector) weighted search graphs a
#: :class:`ProbabilisticRouter` keeps: one edge-weight array each, the
#: index arrays are the network's induced subgraph's.
CORRIDOR_GRAPH_CACHE_SIZE = 1024

#: Entries kept in a router's leg memo (a path plus its per-edge costs
#: is tens of machine words, so the cap bounds the memo around a few
#: tens of MB worst case).
LEG_CACHE_SIZE = 65536

#: Longest landmark travel time (seconds) to a cruise's target partition.
CRUISE_HORIZON_S = 600.0


class RouteInfeasible(RuntimeError):
    """Raised when no deadline-respecting route exists for a schedule."""


class Leg(NamedTuple):
    """A planned leg as the leg memo stores it."""

    #: Vertex path from the leg's start to its end.
    path: list[int]
    #: Travel time of each hop (``RoadNetwork.hop_costs``).
    costs: list[float]
    #: A weighted leg's ``RoadNetwork.path_cost_s(path)`` (the hop
    #: lengths summed, then timed), which the attempt loop reads at every
    #: replay.  ``nan`` on a basic leg: its one reader, the probabilistic
    #: router's fallback, sums the path where it reads it.
    cost_s: float
    #: Whether the basic router needed its full-graph fallback for it.
    fellback: bool


#: A weighted leg whose corridor does not connect its endpoints.
NO_LEG = Leg([], [], math.inf, False)

#: A leg memo key: (u, v) for a basic leg, (u, v, corridor, sector) for
#: a weighted one.
LegKey = tuple[int, int] | tuple[int, int, tuple[int, ...], int]


def timed_leg(network: RoadNetwork, path: list[int], fellback: bool = False) -> Leg:
    """``path`` as a basic leg: its hop times (``RoadNetwork.hop_costs``)."""
    return Leg(path, network.hop_costs(path), math.nan, fellback)


def weighted_leg(network: RoadNetwork, path: list[int]) -> Leg:
    """``path`` as a weighted leg: its hop times and its ``path_cost_s``
    (the hop lengths summed in order, then timed)."""
    lengths = network.hop_lengths(path)
    total = 0.0
    for length in lengths:
        total += length
    speed = network.speed_mps
    return Leg(path, [length / speed for length in lengths], total / speed, False)


def _route_of(start_node: int, start_time: float, legs: Sequence[Leg]) -> TaxiRoute:
    """The legs concatenated, each leg's end a stop, timed by adding
    the hop times in order: a replayed leg gives the route a fresh one
    would, bit for bit."""
    nodes = [start_node]
    times = [start_time]
    stop_positions: list[int] = []
    t = start_time
    for path, costs, _cost_s, _fellback in legs:
        for c in costs:
            t = t + c
            times.append(t)
        nodes.extend(path[1:])
        stop_positions.append(len(nodes) - 1)
    return TaxiRoute(nodes=nodes, times=times, stop_positions=stop_positions)


def compose_route(
    network: RoadNetwork,
    start_node: int,
    start_time: float,
    legs: Sequence[Sequence[int]],
) -> TaxiRoute:
    """Concatenate leg paths into a :class:`TaxiRoute` with true times.

    Leg ``k`` must start where leg ``k-1`` ended; the end of each leg
    is marked as the position of schedule stop ``k``.
    """
    node = start_node
    for leg in legs:
        if not leg or leg[0] != node:
            raise ValueError(f"leg {leg!r} does not start at {node}")
        node = leg[-1]
    return _route_of(start_node, start_time, [timed_leg(network, list(leg)) for leg in legs])


class BasicRouter:
    """Shortest-path routing accelerated by partition filtering (Alg. 3).

    Parameters
    ----------
    network, engine:
        Road network and its cached shortest-path engine.
    partition_filter:
        The memoised Algorithm 2 instance; ``None`` disables filtering
        (plain cached shortest paths), which is what the grid-based
        baselines effectively do.
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        partition_filter: PartitionFilter | None = None,
    ) -> None:
        self._network = network
        self._engine = engine
        self._filter = partition_filter
        self.fallbacks = 0  # legs where filtering had to be bypassed
        self._obs: Instrumentation = NULL
        # (u, v) -> its Leg.  leg_path is deterministic per endpoint
        # pair (the engine's paths and the memoised partition filter
        # never change), so replaying a cached leg is exact; the
        # ``fellback`` flag replays the fallback bookkeeping too.  A
        # ProbabilisticRouter keeps its weighted legs here as well,
        # under (u, v, corridor, sector).
        self.legs: BoundedMemo[LegKey, Leg] = BoundedMemo(LEG_CACHE_SIZE)

    def instrument(self, obs: Instrumentation) -> None:
        """Attach an observability registry (``repro.obs``)."""
        self._obs = obs

    def cost(self, u: int, v: int) -> float:
        """Leg travel cost in seconds — the cached shortest-path cost.

        Matching evaluates schedule instances with this O(1) query, as
        the paper assumes for its complexity analysis.
        """
        return self._engine.cost(u, v)

    def leg_path(self, u: int, v: int) -> list[int]:
        """Leg path from ``u`` to ``v`` (Algorithm 3's segment routing).

        With a full all-pairs cache the shortest path is already
        materialised, so partition filtering buys nothing and the cache
        answers directly — this mirrors the paper's own setup, which
        precomputes and caches all shortest paths (Section V-A4).  In
        lazy mode the filter earns its keep: Dijkstra runs on the
        pruned subgraph, falling back to the full graph only when the
        pruned one disconnects the endpoints (one-way streets cut at a
        partition boundary), counted in :attr:`fallbacks`.
        """
        if u == v:
            return [u]
        if self._filter is not None and self._engine.mode != "full":
            allowed = self._filter.allowed_vertices(
                self._filter.landmark_graph.partition_of(u),
                self._filter.landmark_graph.partition_of(v),
            )
            try:
                _cost, path = dijkstra_restricted(self._network, u, v, allowed)
                return path
            except PathNotFound:
                self.fallbacks += 1
                self._obs.count("route.fallback_legs")
        return self._engine.path(u, v)

    def route_for_schedule(
        self,
        start_node: int,
        start_time: float,
        stops: Sequence[Stop],
        taxi_vector: MobilityVector | None = None,
    ) -> TaxiRoute:
        """Plan the full route for a schedule (the ``|><|`` concatenation).

        ``taxi_vector`` is accepted for interface compatibility with
        :class:`ProbabilisticRouter` and ignored here.

        Raises :class:`RouteInfeasible` when any stop deadline cannot
        be met along the produced route.
        """
        with self._obs.stage("route.basic"):
            return self._plan_basic(start_node, start_time, stops)

    def _cached_leg(self, u: int, v: int) -> Leg:
        """:meth:`leg_path` with its hop times, memoised per endpoint pair.

        A hit replays exactly what recomputing the leg would have done —
        including the fallback counter when the cached leg needed the
        full-graph bypass — so observability totals are unchanged by
        caching.  Callers must not mutate the returned lists.
        """
        key = (u, v)
        leg = self.legs.lookup(key)
        if leg is None:
            before = self.fallbacks
            path = self.leg_path(u, v)
            return self.legs.store(key, timed_leg(self._network, path, self.fallbacks != before))
        if leg.fellback:
            self.fallbacks += 1
            self._obs.count("route.fallback_legs")
        return leg

    def _plan_basic(
        self,
        start_node: int,
        start_time: float,
        stops: Sequence[Stop],
    ) -> TaxiRoute:
        legs: list[Leg] = []
        node = start_node
        for stop in stops:
            legs.append(self._cached_leg(node, stop.node))
            node = stop.node
        route = _route_of(start_node, start_time, legs)
        stop_times = [route.times[i] for i in route.stop_positions]
        if deadlines_met(stops, stop_times):
            return route
        # The filtered subgraph can miss the true shortest path (one-way
        # streets cut by the partition boundary); retry with exact
        # shortest paths before declaring the schedule infeasible.
        self.fallbacks += 1
        self._obs.count("route.fallback_routes")
        legs: list[list[int]] = []
        node = start_node
        for stop in stops:
            legs.append(self._engine.path(node, stop.node))
            node = stop.node
        route = compose_route(self._network, start_node, start_time, legs)
        stop_times = [route.times[i] for i in route.stop_positions]
        if not deadlines_met(stops, stop_times):
            raise RouteInfeasible("a stop deadline is violated on the planned route")
        return route


class SectorEntry(NamedTuple):
    """Step 1 of Algorithm 4 for one (partition, heading sector)."""

    #: Destination partitions that make a request hailed here suitable.
    dests: list[int]
    #: ``pi_i``: probability of meeting a suitable request in the partition.
    pi: float
    #: ``psi_c`` of every member vertex (``lg.members`` order), floored at MIN_PSI.
    psi: np.ndarray


class CorridorGraph(NamedTuple):
    """Step 3's search graph for one (corridor, heading sector).

    Plain Python lists: a corridor has tens of vertices, where a heap
    Dijkstra over lists beats a call into scipy (docs/PERFORMANCE.md,
    "Segment routing").
    """

    #: Global id of each local vertex, ascending (``InducedSubgraph.nodes``).
    nodes: list[int]
    #: CSR row pointers and column indices in the local numbering.
    indptr: list[int]
    indices: list[int]
    #: Travel times with every vertex's weight folded into its in-edges.
    weights: list[float]

    @classmethod
    def build(cls, sub: InducedSubgraph, vertex_weight_local: np.ndarray) -> CorridorGraph:
        """``sub`` with ``vertex_weight_local[c]`` added to every edge into ``c``."""
        weights = sub.data_s + vertex_weight_local[sub.indices]
        return cls(sub.nodes.tolist(), sub.indptr.tolist(), sub.indices.tolist(),
                   weights.tolist())

    def local_of(self, v: int) -> int:
        """Local index of global vertex ``v``, or -1 when absent."""
        i = bisect_left(self.nodes, v)
        return i if i < len(self.nodes) and self.nodes[i] == v else -1

    def shortest_path(self, source: int, target: int) -> tuple[float, list[int]]:
        """Binary-heap Dijkstra from ``source`` to ``target`` (global ids).

        Stops when it settles ``target``; a distance changes only on a
        strict improvement, and the heap pops ``(distance, local
        index)`` in order, so of equally short paths the one through
        the lower local indices wins.  Returns ``(cost, path)``; raises
        ``ValueError`` unless both endpoints lie in the corridor and
        :class:`PathNotFound` when ``target`` is unreachable.
        """
        ls = self.local_of(source)
        lt = self.local_of(target)
        if ls < 0 or lt < 0:
            raise ValueError(f"{source} -> {target}: both endpoints must lie inside the subgraph")
        if ls == lt:
            return 0.0, [source]
        nodes, indptr, indices, weights = self
        dist = [math.inf] * len(nodes)
        pred = [-1] * len(nodes)
        dist[ls] = 0.0
        heap = [(0.0, ls)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, u = pop(heap)
            if u == lt:
                break
            if d > dist[u]:
                continue  # superseded by a strict improvement
            for j in range(indptr[u], indptr[u + 1]):
                nd = d + weights[j]
                v = indices[j]
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
        else:
            raise PathNotFound(f"no path from {source} to {target} within the corridor")
        path = [target]
        node = lt
        while node != ls:
            node = pred[node]
            path.append(nodes[node])
        path.reverse()
        return dist[lt], path


def choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(weights), p=weights / weights.sum())``
    draws from: ``cdf.searchsorted(rng.random(), side="right")`` is that
    call's draw, from the same stream position."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def heading_sector(direction: tuple[float, float]) -> int:
    """The 22.5-degree sector of a travel direction (zero vector: ``NUM_SECTORS``)."""
    dx, dy = direction
    if dx == 0.0 and dy == 0.0:
        return NUM_SECTORS
    return int(0.5 * NUM_SECTORS * (1.0 + math.atan2(dy, dx) / math.pi)) % NUM_SECTORS


def sector_direction(sector: int) -> tuple[float, float]:
    """The unit heading at the centre of ``sector`` (``NUM_SECTORS``: the zero vector)."""
    if sector == NUM_SECTORS:
        return 0.0, 0.0
    angle = math.pi * (2.0 * (sector + 0.5) / NUM_SECTORS - 1.0)
    return math.cos(angle), math.sin(angle)


#: ``sector_direction`` of every sector, the zero vector last.
SECTOR_DIRECTIONS = np.array([sector_direction(s) for s in range(NUM_SECTORS + 1)])


def suitable_rows(landmark_xy: np.ndarray, pi: int, lam: float) -> list[list[int]]:
    """Step 1's suitable destination partitions of ``P_i`` under every
    heading sector: entry ``s`` lists, ascending, the partitions whose
    landmark lies within ``lam`` of sector ``s``'s centre heading, seen
    from ``P_i``'s landmark.  The verdicts are the scalar
    ``cosine_similarity`` ones, bit for bit
    (:func:`~repro.network.geo.cosine_table`).
    """
    suits = cosine_table(landmark_xy - landmark_xy[pi], SECTOR_DIRECTIONS) >= lam
    suits[pi] = False
    return [np.flatnonzero(column).tolist() for column in suits.T]


class ProbabilisticRouter(BasicRouter):
    """Probabilistic routing (Algorithm 4).

    Steps 1 and 3 are defined from the offline transition model and the
    taxi's heading sector (:func:`heading_sector`) alone, step 1 at the
    sector's centre heading (:func:`sector_direction`), so each step is
    a pure function of its key and remembers its answer at that key:
    :class:`SectorEntry` per (partition, sector), the corridor lists per
    (source partition, destination partition, sector), a
    :class:`CorridorGraph` per (corridor, sector), and each weighted leg
    per (u, v, corridor, sector) in the inherited leg memo.  A planned
    leg or a cruise is then a lookup after its first search, and what a
    call returns does not depend on which calls came before it.

    Parameters
    ----------
    transition_model:
        Historical transition statistics aligned with the partitions of
        ``partition_filter``'s landmark graph.
    lam:
        Direction threshold used to decide which destination partitions
        make an offline request *suitable* for the taxi.
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine,
        partition_filter: PartitionFilter,
        transition_model: TransitionModel,
        lam: float = DEFAULT_LAMBDA,
        steering_m: float = 120.0,
    ) -> None:
        if partition_filter is None:
            raise ValueError("probabilistic routing requires a partition filter")
        super().__init__(network, engine, partition_filter)
        self._model = transition_model
        self._lam = float(lam)
        self._steering_s = network.meters_to_seconds(max(0.0, float(steering_m)))
        lg = partition_filter.landmark_graph
        parts = range(lg.num_partitions)
        # Share of historical pick-up demand generated inside each
        # partition, and each partition's hottest vertex (first wins a tie).
        self._demand_share = np.array(
            [sum(transition_model.pickup_frequency(v) for v in lg.members(z)) for z in parts]
        )
        self._hot_vertex = [max(lg.members(z), key=transition_model.pickup_count) for z in parts]
        # Per partition, the cruise targets within reach and the
        # normalised cdf of their scores (``None``: no target).
        self._cruise_targets: list[tuple[list[int], np.ndarray] | None] = []
        share = self._demand_share
        for here in parts:
            travel = lg.landmark_cost_row(here)
            candidates = np.flatnonzero(~(share <= 0.0) & ~(travel > CRUISE_HORIZON_S))
            if not candidates.size:
                self._cruise_targets.append(None)
                continue
            scores = share[candidates] / (1.0 + travel[candidates] / 300.0)
            self._cruise_targets.append((candidates.tolist(), choice_cdf(scores)))
        #: pi -> its suitable destinations under every sector (step 1).
        self._suitable: dict[int, list[list[int]]] = {}
        self._sectors: dict[tuple[int, int], SectorEntry] = {}
        #: (pz, pz1, sector) -> corridors to try, best first.
        self.corridor_lists: BoundedMemo[
            tuple[int, int, int], list[tuple[int, ...]]
        ] = BoundedMemo(CORRIDOR_LIST_CACHE_SIZE)
        #: (corridor, sector) -> its vertex-weighted search graph.
        self.corridor_graphs: BoundedMemo[
            tuple[tuple[int, ...], int], CorridorGraph
        ] = BoundedMemo(CORRIDOR_GRAPH_CACHE_SIZE)

    @property
    def sector_entries(self) -> int:
        """Filled (partition, sector) entries; at most ``kappa * (NUM_SECTORS + 1)``."""
        return len(self._sectors)

    # ------------------------------------------------------------------
    # step 1: suitability probabilities
    # ------------------------------------------------------------------
    def _sector_entry(self, pi: int, sector: int) -> SectorEntry:
        """Step 1 for ``(pi, sector)``, memoised.

        A request hailed in ``P_i`` is suitable when its implied travel
        direction (landmark of ``P_i`` to the destination partition's
        landmark) is aligned with the sector's centre heading.
        """
        entry = self._sectors.get((pi, sector))
        if entry is not None:
            return entry
        rows = self._suitable.get(pi)
        if rows is None:
            rows = self._suitable[pi] = suitable_rows(self._filter.landmark_xy, pi, self._lam)
        dests = rows[sector]
        members = self._filter.landmark_graph.members(pi)
        # psi_c: chance of a *suitable* request materialising at c — the
        # accumulated transition probability towards the suitable
        # destinations, weighted by how much pick-up demand c actually
        # generates.
        psi = np.maximum(self._model.suitable_demand(members, dests), MIN_PSI)
        entry = SectorEntry(dests, self._model.partition_probability(members, dests), psi)
        self._sectors[(pi, sector)] = entry
        return entry

    # ------------------------------------------------------------------
    # step 2: max-weight landmark paths
    # ------------------------------------------------------------------
    def _corridor_list(self, pz: int, pz1: int, sector: int) -> list[tuple[int, ...]]:
        """The corridors a leg from ``pz`` to ``pz1`` tries, best first."""
        key = (pz, pz1, sector)
        corridors = self.corridor_lists.lookup(key)
        if corridors is None:
            retained = self._filter.filter_partitions(pz, pz1)
            weight = {pi: self._sector_entry(pi, sector).pi for pi in retained}
            corridors = self.corridor_lists.store(
                key, self._corridors(retained, pz, pz1, weight)
            )
        return corridors

    def _corridors(
        self,
        retained: list[int],
        pz: int,
        pz1: int,
        weight: dict[int, float],
    ) -> list[tuple[int, ...]]:
        """Simple landmark paths from ``pz`` to ``pz1`` inside ``retained``,
        sorted by accumulated probability (descending), capped.

        The landmark subgraph is small (the partitions that survive
        filtering), so the paper enumerates all paths; we cap the
        enumeration defensively and keep the best ones.
        """
        lg = self._filter.landmark_graph
        if pz == pz1:
            return [(pz,)]
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

        paths: list[tuple[float, tuple[int, ...]]] = []
        budget = MAX_ENUMERATED_PATHS

        def dfs(node: int, visited: set[int], acc: float, path: list[int]) -> None:
            nonlocal budget
            if budget <= 0:
                return
            if node == pz1:
                budget -= 1
                paths.append((acc, tuple(path)))
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
    def _corridor_graph(self, corridor: tuple[int, ...], sector: int) -> CorridorGraph:
        """The corridor's induced subgraph with ``psi`` folded into its edges."""
        key = (corridor, sector)
        graph = self.corridor_graphs.lookup(key)
        if graph is not None:
            return graph
        lg = self._filter.landmark_graph
        # The memoised frozenset keys the network's induced-subgraph
        # memo: the sectors of one corridor share the CSR submatrix.
        sub = self._network.induced_subgraph(self._filter.corridor_vertices(corridor))
        # Partitions are disjoint, so the corridor's members sorted are
        # exactly ``sub.nodes``: the same permutation lines psi up.
        members = np.concatenate([lg.members(pi) for pi in corridor])
        psi = np.concatenate(
            [self._sector_entry(pi, sector).psi for pi in corridor]
        )[np.argsort(members)]
        # The paper weights vertex c by 1/psi_c.  Raw reciprocals can be
        # astronomically large for never-observed vertices and would make
        # Dijkstra chase any observed vertex regardless of distance, so
        # we use the bounded equivalent scale * (1 - psi_c / psi_max):
        # minimising it prefers high-psi vertices, discounting up to
        # ``scale`` seconds per hot vertex on top of the travel-time
        # objective.  Normalising by the corridor's peak psi keeps the
        # preference meaningful even when absolute probabilities are
        # tiny (they always are: psi is a per-trip probability).
        weights = self._steering_s * (1.0 - psi / psi.max())
        return self.corridor_graphs.store(key, CorridorGraph.build(sub, weights))

    def _weighted_leg(
        self,
        u: int,
        v: int,
        corridor: tuple[int, ...],
        sector: int,
    ) -> Leg | None:
        """Vertex-weighted shortest path inside the corridor partitions
        (which hold both ``u`` and ``v``), memoised; ``None`` when the
        corridor does not connect them."""
        key = (u, v, corridor, sector)
        leg = self.legs.lookup(key)
        if leg is None:
            try:
                _cost, path = self._corridor_graph(corridor, sector).shortest_path(u, v)
                leg = weighted_leg(self._network, path)
            except PathNotFound:
                leg = NO_LEG
            self.legs.store(key, leg)
        return None if leg is NO_LEG else leg

    def partition_demand_share(self, pi: int) -> float:
        """Share of historical pick-up demand generated inside ``P_i``."""
        return float(self._demand_share[pi])

    def cruise_route(self, start_node: int, start_time: float) -> TaxiRoute | None:
        """A passenger-seeking cruise for an idle taxi (non-peak mode).

        When online requests are inadequate, a vacant taxi heads for
        the partition with the best demand-per-travel-time trade-off
        (within ``CRUISE_HORIZON_S``) and approaches it through
        demand-hot vertices.  Returns ``None`` when the taxi already
        stands in the best partition's hot spot.
        """
        lg = self._filter.landmark_graph
        here = lg.partition_of(start_node)
        targets = self._cruise_targets[here]
        if targets is None:
            return None
        candidates, cdf = targets
        # Sample the target proportionally to its score instead of
        # taking the argmax: greedy targeting would herd every vacant
        # taxi onto one hotspot and strip coverage everywhere else.
        # The seed is derived from (position, time) so runs stay
        # deterministic; the draw is ``rng.choice(p=...)``'s own.
        rng = np.random.default_rng((start_node * 1_000_003 + int(start_time)) & 0x7FFFFFFF)
        best_target = candidates[int(cdf.searchsorted(rng.random(), side="right"))]
        target_vertex = self._hot_vertex[best_target]
        if target_vertex == start_node:
            # Already parked on the hot spot; hop to the runner-up so the
            # taxi keeps sweeping demand instead of standing still.
            neighbors = [z for z in lg.neighbors(best_target)
                         if self.partition_demand_share(z) > 0]
            if not neighbors:
                return None
            nxt = max(neighbors, key=self.partition_demand_share)
            target_vertex = self._hot_vertex[nxt]
            if target_vertex == start_node:
                return None
            best_target = nxt
        corridor = tuple(self._filter.filter_partitions(here, best_target))
        # A cruise has no heading: the zero vector's sector of its own.
        # The target is not the start, so any path has a hop.
        leg = self._weighted_leg(start_node, target_vertex, corridor, NUM_SECTORS)
        if leg is not None:
            return TaxiRoute.cruise(leg.path, leg.costs, start_time)
        try:
            path = self._engine.path(start_node, target_vertex)
        except PathNotFound:
            return None
        return TaxiRoute.cruise(path, self._network.hop_costs(path), start_time)

    def route_for_schedule(
        self,
        start_node: int,
        start_time: float,
        stops: Sequence[Stop],
        taxi_vector: MobilityVector | None = None,
    ) -> TaxiRoute:
        """Plan a probability-seeking route meeting every stop deadline.

        Per leg, corridors are tried best-first; a candidate leg is kept
        only if the whole schedule remains feasible assuming shortest
        paths for the remaining legs.  Exhausted attempts fall back to
        the basic (shortest-path) leg; if even that breaks a deadline
        the schedule instance is infeasible.
        """
        if taxi_vector is None:
            return super().route_for_schedule(start_node, start_time, stops)
        with self._obs.stage("route.probabilistic"):
            return self._plan_probabilistic(start_node, start_time, stops, taxi_vector)

    def _plan_probabilistic(
        self,
        start_node: int,
        start_time: float,
        stops: Sequence[Stop],
        taxi_vector: MobilityVector,
    ) -> TaxiRoute:
        sector = heading_sector(taxi_vector.direction)
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

        legs: list[Leg] = []
        node = start_node
        consumed_extra = 0.0
        for k, stop in enumerate(stops):
            shortest_cost = self.cost(node, stop.node)
            budget = slack_from[k] - consumed_extra
            chosen: Leg | None = None

            pz, pz1 = lg.partition_of(node), lg.partition_of(stop.node)
            for corridor in self._corridor_list(pz, pz1, sector):
                leg = self._weighted_leg(node, stop.node, corridor, sector)
                if leg is None:
                    continue
                extra = leg.cost_s - shortest_cost
                if extra <= budget + 1e-9:
                    chosen = leg
                    consumed_extra += max(0.0, extra)
                    break
            if chosen is None:
                chosen = self._cached_leg(node, stop.node)
                extra = self._network.path_cost_s(chosen.path) - shortest_cost
                if extra > budget + 1e-9:
                    raise RouteInfeasible(
                        f"no deadline-respecting leg from {node} to {stop.node}"
                    )
                consumed_extra += max(0.0, extra)
            legs.append(chosen)
            node = stop.node

        route = _route_of(start_node, start_time, legs)
        stop_times = [route.times[i] for i in route.stop_positions]
        if not deadlines_met(stops, stop_times):
            raise RouteInfeasible("probabilistic route misses a deadline")
        return route
