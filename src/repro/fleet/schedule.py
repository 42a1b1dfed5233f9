"""Taxi schedules (Definition 4) and insertion feasibility machinery.

A taxi schedule is a sequence of *stops* — pick-up or drop-off events at
road vertices, each with a deadline inherited from its request.  All
ridesharing schemes in the paper share the same scheduling primitive:
insert the new request's pick-up and drop-off into the existing stop
sequence *without reordering it* (Section IV-C2), then test the
resulting schedule against every passenger's deadline and the taxi's
capacity.  This module implements stops, insertion enumeration, and the
feasibility checks; routing (how inter-stop costs are obtained) is
supplied by the caller as a cost function, so the same machinery serves
basic routing, probabilistic routing and the grid-based baselines.

:func:`score_insertions` is the production form of the primitive and
the only entry point the dispatch schemes call: per (request,
candidate) row of a pair index over distinct candidates and distinct
requests, the minimum-arrival feasible ``(i, j)`` instance.  It picks
between two tiers from the row and instance counts — a plain-Python
walk over cached distance rows for small calls, grouped numpy array
kernels (:func:`evaluate_insertions_grouped`) for large ones, fed
from fields gathered once per candidate and once per request — and
both are bit-identical to the scalar oracle that stays here
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`), which the kernel tests
diff them against and T-Share's first-feasible rule uses directly.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..demand.request import RideRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy.typing as npt

    from ..network.shortest_path import ShortestPathEngine
    from ..obs import Instrumentation

    #: One column of a :func:`score_insertions` pair index: each row's
    #: position in ``requests``, or in ``starts``.
    IndexColumn = Sequence[int] | npt.NDArray[np.intp]
    #: The pair index ``(request_of_row, start_of_row)``.
    InsertionPairs = tuple[IndexColumn, IndexColumn]


class StopKind(enum.Enum):
    """Whether a stop picks up or drops off its request's passengers."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


#: ``StopKind.PICKUP`` read once: an enum member looked up through its
#: class costs ~0.24 us on CPython 3.11, more than the rest of a
#: :class:`Stop` property, and the insertion scorers read those
#: properties once per pending stop per candidate.
_PICKUP = StopKind.PICKUP

#: Seconds a stop may be served after its deadline and still count as
#: on time: absorbs float rounding in summed leg costs.  Every deadline
#: check of the insertion machinery reads it.
DEADLINE_SLACK_S = 1e-9


@dataclass(frozen=True, slots=True)
class Stop:
    """One schedule event: pick up or drop off a request at a vertex."""

    kind: StopKind
    request: RideRequest

    @property
    def node(self) -> int:
        """The road vertex where this stop happens."""
        if self.kind is _PICKUP:
            return self.request.origin
        return self.request.destination

    @property
    def deadline(self) -> float:
        """Latest admissible service time for this stop."""
        if self.kind is _PICKUP:
            return self.request.pickup_deadline
        return self.request.deadline

    @property
    def passenger_delta(self) -> int:
        """Occupancy change when this stop executes."""
        if self.kind is _PICKUP:
            return self.request.num_passengers
        return -self.request.num_passengers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stop({self.kind.value}, r{self.request.request_id}@{self.node})"


def pickup(request: RideRequest) -> Stop:
    """Convenience constructor for a pick-up stop."""
    return Stop(StopKind.PICKUP, request)


def dropoff(request: RideRequest) -> Stop:
    """Convenience constructor for a drop-off stop."""
    return Stop(StopKind.DROPOFF, request)


def request_stop_pair(request: RideRequest) -> tuple[Stop, Stop]:
    """The (pick-up, drop-off) stop pair of a request."""
    return pickup(request), dropoff(request)


def remove_request_stops(stops: Sequence[Stop], request_id: int) -> list[Stop]:
    """A copy of ``stops`` without the given request's stops.

    Used when a passenger cancels pre-pickup: the relative order of
    everyone else's stops is preserved, and by the triangle inequality
    dropping stops can only shorten the remaining arrivals, so a
    feasible schedule stays feasible.
    """
    return [s for s in stops if s.request.request_id != request_id]


CostFn = Callable[[int, int], float]

#: One distinct candidate of :func:`score_insertions`: ``(start_node,
#: start_time, pending_stops, initial_onboard, capacity)``.
InsertionStart = tuple[int, float, Sequence[Stop], int, int]


def enumerate_insertions(
    stops: Sequence[Stop],
    request: RideRequest,
) -> Iterator[tuple[int, int, list[Stop]]]:
    """All schedule instances inserting ``request`` into ``stops``.

    Yields ``(i, j, new_stops)`` where the pick-up is inserted at index
    ``i`` and the drop-off ends up at index ``j > i`` of the new list.
    The relative order of the existing stops is preserved, exactly as
    the paper (and T-Share, pGreedyDP) prescribe, giving
    ``(m + 1)(m + 2) / 2`` instances for an ``m``-stop schedule.
    """
    pu, do = request_stop_pair(request)
    m = len(stops)
    for i in range(m + 1):
        for j in range(i, m + 1):
            new_stops = list(stops[:i])
            new_stops.append(pu)
            new_stops.extend(stops[i:j])
            new_stops.append(do)
            new_stops.extend(stops[j:])
            yield i, j + 1, new_stops


def arrival_times(
    start_node: int,
    start_time: float,
    stops: Sequence[Stop],
    cost_fn: CostFn,
) -> list[float]:
    """Service time of each stop when travelling via ``cost_fn``.

    ``cost_fn(u, v)`` must return the travel time in seconds between two
    vertices (typically the shortest-path cost; probabilistic routing
    substitutes its own).  Unreachable legs yield ``inf`` arrivals.
    """
    times: list[float] = []
    node = start_node
    t = start_time
    for stop in stops:
        t = t + cost_fn(node, stop.node)
        node = stop.node
        times.append(t)
    return times


def deadlines_met(stops: Sequence[Stop], times: Sequence[float]) -> bool:
    """Whether every stop is served no later than its deadline."""
    slack = DEADLINE_SLACK_S
    return all(t <= stop.deadline + slack for stop, t in zip(stops, times))


def capacity_ok(
    stops: Sequence[Stop],
    initial_onboard: int,
    capacity: int,
) -> bool:
    """Whether occupancy stays within ``capacity`` along the schedule.

    ``initial_onboard`` is the number of passengers already in the taxi
    when the schedule starts (their drop-offs appear in ``stops``).
    """
    onboard = initial_onboard
    for stop in stops:
        onboard += stop.passenger_delta
        if onboard > capacity:
            return False
        if onboard < 0:
            raise ValueError("schedule drops off passengers that were never aboard")
    return True


# ----------------------------------------------------------------------
# insertion scoring, grouped tier: numpy array kernels
# ----------------------------------------------------------------------
#: Per-m instance grids (pickup index, dropoff index, position map).
#: A module-level table written on the dispatch path, and safe there: a
#: pure memo keyed by the pending-stop count, the value depends only on
#: ``m``, so one build serves every run of the process.
_GRID_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _insertion_grid(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ii, jj, seq)`` instance grid for an ``m``-stop schedule.

    ``seq[r, s]`` names which *extended* stop (``0..m-1`` original, ``m``
    pick-up, ``m+1`` drop-off) sits at position ``s`` of instance ``r``'s
    new stop list; rows are in :func:`enumerate_insertions` order
    (pick-up index ascending, then drop-off index).
    """
    cached = _GRID_CACHE.get(m)
    if cached is None:
        ii, jj = np.triu_indices(m + 1)
        col_i = ii[:, None]
        col_j = jj[:, None]
        pos = np.arange(m + 2)[None, :]
        seq = np.where(
            pos < col_i,
            pos,
            np.where(
                pos == col_i,
                m,
                np.where(pos <= col_j, pos - 1, np.where(pos == col_j + 1, m + 1, pos - 2)),
            ),
        )
        cached = (ii, jj, seq)
        _GRID_CACHE[m] = cached
    return cached


@dataclass(frozen=True, slots=True)
class GroupedInsertionBatch:
    """Every insertion instance of *several* rows with equal ``m``.

    ``last_arrival`` and ``feasible`` are ``(T, R)`` arrays — one row
    per (request, candidate) row, one column per insertion instance, columns in
    :func:`enumerate_insertions` order, so ``argmin`` over the feasible
    arrivals reproduces the scalar loop's first-minimum tie handling.
    """

    #: Pick-up insertion index of each instance (``i`` of the scalar
    #: enumeration).
    pickup_idx: np.ndarray
    #: Drop-off index in the *new* stop list (``j`` of the enumeration).
    dropoff_idx: np.ndarray
    #: Service time of the last stop of each instance (``inf`` when a
    #: leg is unreachable).
    last_arrival: np.ndarray
    #: Deadline *and* capacity feasibility of each instance.
    feasible: np.ndarray


def evaluate_insertions_grouped(
    engine: ShortestPathEngine,
    start_nodes: np.ndarray,
    start_times: np.ndarray,
    ext_nodes: np.ndarray,
    ext_deadlines: np.ndarray,
    ext_deltas: np.ndarray,
    initial_onboards: np.ndarray,
    capacities: np.ndarray,
) -> GroupedInsertionBatch:
    """Batched Algorithm-1 evaluation for ``T`` rows sharing ``m``.

    A row is one (request, candidate) pair, already gathered into
    arrays: ``ext_nodes`` / ``ext_deadlines`` / ``ext_deltas`` are
    ``(T, m + 2)`` — the candidate's ``m`` pending stops in order, then
    the request's pick-up (column ``m``) and drop-off (column
    ``m + 1``) — and the other operands hold one value per row.  Every
    row has the same pending-stop count (the caller groups by it), and
    nothing here reads a :class:`Stop` or a request.  For all
    ``T * (m + 1)(m + 2) / 2`` insertion instances at once this gathers
    exactly the legs the instances drive (one elementwise
    :meth:`~repro.network.shortest_path.ShortestPathEngine.cost_pairs`
    query) and takes a cumulative sum, which accumulates left to right
    exactly like the scalar :func:`arrival_times` loop, then the
    occupancy profiles and the deadline masks.  Costs, feasibility
    verdicts and the implied minimum-detour choices are bit-identical
    to driving :func:`enumerate_insertions` through
    :func:`arrival_times` / :func:`capacity_ok` / :func:`deadlines_met`
    per row and instance.
    """
    t_count, width = ext_nodes.shape
    ii, jj, seq = _insertion_grid(width - 2)

    # Each instance's stop sequence and the vertex every leg leaves from.
    to_nodes = ext_nodes[:, seq]  # (T, R, m + 2)
    from_nodes = np.empty_like(to_nodes)
    from_nodes[:, :, 0] = start_nodes[:, None]
    from_nodes[:, :, 1:] = to_nodes[:, :, :-1]
    acc = np.empty((t_count, ii.size, width + 1), dtype=np.float64)
    acc[:, :, 0] = start_times[:, None]
    acc[:, :, 1:] = engine.cost_pairs(from_nodes.ravel(), to_nodes.ravel()).reshape(
        to_nodes.shape
    )
    times = np.cumsum(acc, axis=2)[:, :, 1:]

    occupancy = initial_onboards[:, None, None] + np.cumsum(ext_deltas[:, seq], axis=2)
    over = occupancy > capacities[:, None, None]
    negative = occupancy < 0
    if negative.any():
        # The scalar loop raises when it reaches a negative occupancy
        # before any over-capacity stop of the same instance.
        prior_over = (np.cumsum(over, axis=2) - over) > 0
        if (negative & ~prior_over).any():
            raise ValueError("schedule drops off passengers that were never aboard")
    cap_ok = ~over.any(axis=2)
    dead_ok = (times <= ext_deadlines[:, seq] + DEADLINE_SLACK_S).all(axis=2)

    return GroupedInsertionBatch(
        pickup_idx=ii,
        dropoff_idx=jj + 1,
        last_arrival=times[:, :, -1],
        feasible=cap_ok & dead_ok,
    )


# ----------------------------------------------------------------------
# insertion scoring, tight tier: plain-Python distance-row walk
# ----------------------------------------------------------------------
#: Per-m instance sequences as plain Python tuples, enumeration order.
#: Like ``_GRID_CACHE`` a pure memo keyed by stop count: written on the
#: dispatch path, the value depends only on ``m``.
_SEQ_TUPLE_CACHE: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}


def _insertion_sequences(m: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(i, j, positions)`` per instance of an ``m``-stop schedule.

    ``positions`` names the extended stop (``0..m-1`` pending, ``m``
    pick-up, ``m+1`` drop-off) at each slot of the new stop list; rows
    follow :func:`enumerate_insertions` order.
    """
    cached = _SEQ_TUPLE_CACHE.get(m)
    if cached is None:
        ii, jj, seq = _insertion_grid(m)
        cached = [
            (int(i), int(j) + 1, tuple(int(e) for e in row))
            for i, j, row in zip(ii, jj, seq)
        ]
        _SEQ_TUPLE_CACHE[m] = cached
    return cached


def idle_arrival(
    ready: float, to_pickup_s: float, trip_s: float, pickup_by: float, dropoff_by: float
) -> float | None:
    """Last arrival of an idle candidate's one instance, or ``None``.

    A candidate with no pending stops has a single insertion: drive
    ``to_pickup_s`` to the pick-up, then ``trip_s`` to the drop-off.
    ``pickup_by`` and ``dropoff_by`` are the request's deadlines plus
    :data:`DEADLINE_SLACK_S`.  The additions and comparisons are
    :func:`arrival_times`' and :func:`deadlines_met`'s over the two
    legs, so the arrival is bit-identical to the enumeration's.
    Capacity is the caller's to check.
    """
    t = ready + to_pickup_s
    if t > pickup_by:
        return None
    t = t + trip_s
    if t > dropoff_by:
        return None
    return t


def _tight_walk(
    engine: ShortestPathEngine,
    starts: Sequence[InsertionStart],
    requests: Sequence[RideRequest],
    request_of: IndexColumn,
    start_of: IndexColumn,
) -> list[tuple[int, float, int, int]]:
    """:func:`score_insertions` by scalar distance-row reads.

    Distance rows are fetched once per distinct vertex and shared
    across the whole call, so a small batch costs a few dozen
    ``row.item`` reads — no numpy call overhead at all.
    """
    speed = engine.network.speed_mps
    slack = DEADLINE_SLACK_S
    dist_row = engine.dist_row
    row_cache: dict[int, np.ndarray] = {}
    inf = np.inf

    out: list[tuple[int, float, int, int]] = []
    current: int | None = None
    for idx, s in enumerate(start_of):
        start_node, start_time, pending, onboard, capacity = starts[s]
        r = request_of[idx]
        if r != current:
            _check_index("request", r, r, len(requests))
            current = r
            request = requests[r]
            pu_node = request.origin
            do_node = request.destination
            pu_dead = request.pickup_deadline + slack
            do_dead = request.deadline + slack
            n_pass = request.num_passengers
            if pu_node not in row_cache:
                row_cache[pu_node] = dist_row(pu_node)
            pu_row = row_cache[pu_node]
            trip_s = pu_row.item(do_node) / speed
        start_row = row_cache.get(start_node)
        if start_row is None:
            start_row = dist_row(start_node)
            row_cache[start_node] = start_row
        m = len(pending)

        if m == 0:
            # Idle candidate: the single pick-up-then-drop-off instance,
            # checked in ``capacity_ok`` order (over-capacity fails
            # before a negative occupancy can raise).
            occ = onboard + n_pass
            if occ > capacity:
                continue
            if occ < 0 or onboard < 0:
                raise ValueError("schedule drops off passengers that were never aboard")
            last = idle_arrival(
                start_time, start_row.item(pu_node) / speed, trip_s, pu_dead, do_dead
            )
            if last is not None:
                out.append((idx, last, 0, 1))
            continue

        ext_nodes: list[int] = []
        ext_dead: list[float] = []
        ext_delta: list[int] = []
        rows: list[np.ndarray] = []
        # Capacity precheck while filling: any instance's occupancy
        # profile is the pending-only running occupancy, plus the
        # request's passengers over the pickup..dropoff span.  When the
        # peak with them aboard fits and no running value is negative,
        # every instance is capacity-feasible and the per-instance walk
        # can skip occupancy entirely — same verdicts, no ValueError
        # possible.
        run = onboard
        run_min = run
        run_max = run
        for stop in pending:
            v = stop.node
            ext_nodes.append(v)
            ext_dead.append(stop.deadline + slack)
            delta = stop.passenger_delta
            ext_delta.append(delta)
            row = row_cache.get(v)
            if row is None:
                row = dist_row(v)
                row_cache[v] = row
            rows.append(row)
            run += delta
            if run < run_min:
                run_min = run
            elif run > run_max:
                run_max = run
        ext_nodes.append(pu_node)
        ext_nodes.append(do_node)
        ext_dead.append(pu_dead)
        ext_dead.append(do_dead)
        ext_delta.append(n_pass)
        ext_delta.append(-n_pass)
        rows.append(pu_row)
        do_row = row_cache.get(do_node)
        if do_row is None:
            do_row = dist_row(do_node)
            row_cache[do_node] = do_row
        rows.append(do_row)
        cap_all_ok = run_min >= 0 and run_max + n_pass <= capacity

        best_last = inf
        best_i = -1
        best_j = -1
        for i, j, positions in _insertion_sequences(m):
            if not cap_all_ok:
                # Faithful scalar capacity walk (first over-capacity
                # stop fails the instance; a negative occupancy reached
                # before one raises, exactly like ``capacity_ok``).
                occ = onboard
                ok = True
                for p in positions:
                    occ += ext_delta[p]
                    if occ > capacity:
                        ok = False
                        break
                    if occ < 0:
                        raise ValueError(
                            "schedule drops off passengers that were never aboard"
                        )
                if not ok:
                    continue
            t = start_time
            row = start_row
            ok = True
            for p in positions:
                t = t + row.item(ext_nodes[p]) / speed
                if t > ext_dead[p]:
                    ok = False
                    break
                row = rows[p]
            if ok and t < best_last:
                best_last = t
                best_i = i
                best_j = j
        if best_i >= 0:
            out.append((idx, best_last, best_i, best_j))
    return out


# ----------------------------------------------------------------------
# insertion scoring: the one entry point over the two tiers
# ----------------------------------------------------------------------
#: Total insertion instances up to which :func:`score_insertions` takes
#: the tight distance-row walk; above it, the grouped array kernels.
#: numpy's fixed per-call cost (~30 ops per kernel call regardless of
#: batch size) dominates under roughly a hundred instances — see
#: docs/PERFORMANCE.md for the measurement that keeps both tiers.
TIGHT_INSERTION_MAX = 96


def num_insertions(m: int) -> int:
    """Insertion instances of an ``m``-stop schedule: ``(m+1)(m+2)/2``."""
    return (m + 1) * (m + 2) // 2


def materialize_insertion(
    pending: Sequence[Stop], request: RideRequest, i: int, j: int
) -> list[Stop]:
    """The stop list of insertion instance ``(i, j)``.

    ``(i, j)`` follows the :func:`enumerate_insertions` convention:
    pick-up at index ``i``, drop-off at index ``j`` of the new list.
    Scoring only tracks winning indices; callers build the one stop
    list they actually install with this.
    """
    pu, do = request_stop_pair(request)
    jo = j - 1
    out = list(pending[:i])
    out.append(pu)
    out.extend(pending[i:jo])
    out.append(do)
    out.extend(pending[jo:])
    return out


def score_insertions(
    engine: ShortestPathEngine,
    starts: Sequence[InsertionStart],
    requests: Sequence[RideRequest],
    pairs: InsertionPairs,
    obs: Instrumentation,
) -> list[tuple[int, float, int, int]]:
    """Minimum-arrival feasible insertion per (request, candidate) row.

    ``starts`` are distinct candidates and ``requests`` distinct
    requests; ``pairs = (request_of_row, start_of_row)`` says which
    request each row inserts into which candidate — ``np.nonzero`` of a
    ``(requests, starts)`` membership mask.  A dispatch scores its one
    request against every candidate (``([0] * k, range(k))``), a window
    scores all of its screened pairs in one call.  Returns ``(row,
    last_arrival, i, j)`` for every row that admits a feasible
    instance, ascending by row; ``(i, j)`` is the first
    minimum-last-arrival instance in :func:`enumerate_insertions` order
    (:func:`materialize_insertion` builds its stop list).  The detour
    ``(last_arrival - start_time) - current_cost`` is monotone in the
    last arrival, so this is Algorithm 1's minimum-detour choice.
    Columns of unequal length, or an index outside ``starts`` or
    ``requests``, raise ``ValueError``.

    Small calls take a plain-Python walk over cached distance rows,
    large ones the grouped array kernels, selected from the row count
    and the total instance count.  Both accumulate arrivals left to
    right with the exact operations of :func:`arrival_times` over
    ``engine.cost`` and follow :func:`capacity_ok` (including its
    ``ValueError`` on impossible drop-offs) and :func:`deadlines_met`,
    so the result is bit-identical to the scalar enumeration whichever
    tier runs.
    """
    request_of, start_of = pairs
    rows = len(request_of)
    if len(start_of) != rows:
        raise ValueError(
            f"pairs columns differ in length: {rows} request indices, "
            f"{len(start_of)} start indices"
        )
    if not rows:
        return []
    # Every row has at least one instance: a long call is grouped.
    if rows <= TIGHT_INSERTION_MAX:
        _check_index("start", min(start_of), max(start_of), len(starts))
        instances = [num_insertions(len(start[2])) for start in starts]
        if sum(map(instances.__getitem__, start_of)) <= TIGHT_INSERTION_MAX:
            obs.count("kernel.tight_dispatches", 1)
            return _tight_walk(engine, starts, requests, request_of, start_of)
    request_idx = np.asarray(request_of, dtype=np.intp)
    start_idx = np.asarray(start_of, dtype=np.intp)
    _check_index("request", int(request_idx.min()), int(request_idx.max()), len(requests))
    _check_index("start", int(start_idx.min()), int(start_idx.max()), len(starts))

    # One flat stop table, read once: every distinct start's pending
    # stops in order, then every distinct request's pick-up and
    # drop-off.  A row's extended stops are an index row into it.
    node_col, time_col, pendings, onboard_col, capacity_col = zip(*starts)
    nodes = np.array(node_col, dtype=np.int64)
    times = np.array(time_col, dtype=np.float64)
    onboards = np.array(onboard_col, dtype=np.int64)
    capacities = np.array(capacity_col, dtype=np.int64)
    counts_of = np.array([len(pending) for pending in pendings], dtype=np.intp)
    first_stop = np.cumsum(counts_of) - counts_of
    stops = [stop for pending in pendings for stop in pending]
    passengers = [r.num_passengers for r in requests]
    flat_nodes = np.array(
        [stop.node for stop in stops] + [v for r in requests for v in (r.origin, r.destination)],
        dtype=np.int64,
    )
    flat_dead = np.array(
        [stop.deadline for stop in stops]
        + [t for r in requests for t in (r.pickup_deadline, r.deadline)],
        dtype=np.float64,
    )
    flat_delta = np.array(
        [stop.passenger_delta for stop in stops] + [d for n in passengers for d in (n, -n)],
        dtype=np.int64,
    )
    request_stops = np.arange(len(stops), flat_nodes.size).reshape(-1, 2)

    # Rows grouped by pending-stop count, ascending within each group.
    by_count = counts_of[start_idx]
    order = np.argsort(by_count, kind="stable")
    sizes = np.bincount(by_count)
    groups = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)
    obs.count("kernel.batched_insertions", groups.size)
    out: list[tuple[int, float, int, int]] = []
    for m, begin, end in zip(
        groups.tolist(), (ends - sizes)[groups].tolist(), ends[groups].tolist()
    ):
        members = order[begin:end]
        s = start_idx[members]
        at = np.concatenate(
            (first_stop[s, None] + np.arange(m), request_stops[request_idx[members]]), axis=1
        )
        batch = evaluate_insertions_grouped(
            engine,
            nodes[s],
            times[s],
            flat_nodes[at],
            flat_dead[at],
            flat_delta[at],
            onboards[s],
            capacities[s],
        )
        # First minimum among the feasible instances, per row — the
        # scalar loop's strict-improvement tie handling.
        masked = np.where(batch.feasible, batch.last_arrival, np.inf)
        winners = np.argmin(masked, axis=1)
        won = np.flatnonzero(batch.feasible[np.arange(members.size), winners])
        ks = winners[won]
        out.extend(
            zip(
                members[won].tolist(),
                batch.last_arrival[won, ks].tolist(),
                batch.pickup_idx[ks].tolist(),
                batch.dropoff_idx[ks].tolist(),
            )
        )
    out.sort()
    return out


def _check_index(name: str, low: int, high: int, size: int) -> None:
    """Refuse a pair index that reaches outside its ``size`` entries."""
    if low < 0 or high >= size:
        raise ValueError(
            f"pairs index a {name} outside [0, {size}): indices span [{low}, {high}]"
        )
