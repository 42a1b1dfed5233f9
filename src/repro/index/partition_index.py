"""Map-partition-based taxi index (Section IV-B3 of the paper).

For every map partition ``P_z`` the index keeps a taxi list ``P_z.L_t``
of the taxis that are currently in, or whose planned route will reach,
partition ``P_z`` within a horizon ``T_mp`` (the paper uses one hour),
annotated with the arrival time (a taxi -> arrival mapping; nothing
reads the list in arrival order, so it is not kept sorted).  The list
answers two questions during candidate searching: *which taxis can
be near this request's origin*, and *can taxi t reach the request's
partition before its pick-up deadline* (refinement rule 3).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain

import numpy as np

#: ``T_mp``: route positions further than this in the future are not
#: indexed (the paper: one hour).
HORIZON_S = 3600.0


class PartitionTaxiIndex:
    """Per-partition taxi lists with arrival times.

    Parameters
    ----------
    num_partitions:
        Number of map partitions ``kappa``.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self._by_partition: list[dict[int, float]] = [{} for _ in range(num_partitions)]
        self._partitions_of_taxi: dict[int, set[int]] = {}

    @property
    def num_partitions(self) -> int:
        """Number of partitions indexed."""
        return len(self._by_partition)

    def update_taxi(
        self,
        taxi_id: int,
        partition_arrivals: dict[int, float],
    ) -> None:
        """Replace the indexed partitions of ``taxi_id``.

        ``partition_arrivals`` maps partition id to the earliest arrival
        time along the taxi's (re)planned route; entries are taken as
        given (the caller applies the horizon against *now*).
        """
        self.remove_taxi(taxi_id)
        touched: set[int] = set()
        for z, t in partition_arrivals.items():
            self._by_partition[z][taxi_id] = float(t)
            touched.add(z)
        if touched:
            self._partitions_of_taxi[taxi_id] = touched

    def update_taxi_from_route(
        self,
        taxi_id: int,
        route_nodes: Sequence[int],
        route_times: Sequence[float],
        partition_of: Callable[[int], int],
        now: float,
    ) -> None:
        """Index a taxi from its concrete route.

        ``partition_of`` maps a vertex to its partition id.  The first
        arrival per partition within ``now + T_mp`` is recorded.
        """
        arrivals: dict[int, float] = {}
        limit = now + HORIZON_S
        for node, t in zip(route_nodes, route_times):
            if t > limit:
                break
            z = partition_of(node)
            if z not in arrivals or t < arrivals[z]:
                arrivals[z] = max(t, now)
        self.update_taxi(taxi_id, arrivals)

    def place_idle_taxi(self, taxi_id: int, partition: int, now: float) -> None:
        """Index an idle (parked) taxi at its current partition."""
        self.update_taxi(taxi_id, {partition: now})

    def remove_taxi(self, taxi_id: int) -> None:
        """Drop all index entries of ``taxi_id``."""
        for z in self._partitions_of_taxi.pop(taxi_id, ()):
            self._by_partition[z].pop(taxi_id, None)

    def arrival_map(self, partition: int) -> dict[int, float]:
        """The live taxi -> arrival mapping of one partition.

        Returned by reference so candidate screening can probe a whole
        pool with plain dict lookups; callers must treat it as
        read-only.
        """
        return self._by_partition[partition]

    def arrival_table(self) -> tuple[list[int], np.ndarray]:
        """Every ``P_z.L_t`` at once, for whole-window candidate screening.

        Returns the indexed taxi ids in ascending order and the
        ``(num_partitions, len(ids))`` float64 table of their indexed
        arrivals — the very floats :meth:`arrival_map` serves — with
        ``NaN`` where the taxi is not on that partition's list (``NaN``
        fails every comparison, so "not listed" never reads as "on
        time").  A fresh array per call: the caller owns it.
        """
        ids = sorted(self._partitions_of_taxi)
        col_of = {tid: j for j, tid in enumerate(ids)}.__getitem__
        lists = self._by_partition
        sizes = [len(entries) for entries in lists]
        total = sum(sizes)
        rows = np.repeat(np.arange(len(lists)), sizes)
        cols = np.fromiter(
            chain.from_iterable(map(col_of, entries) for entries in lists), np.intp, total
        )
        times = np.fromiter(
            chain.from_iterable(entries.values() for entries in lists), np.float64, total
        )
        table = np.full((len(lists), len(ids)), np.nan)
        table[rows, cols] = times
        return ids, table

    def union_taxis(self, partitions: Iterable[int]) -> list[int]:
        """Union of the taxi lists of several partitions (Eq. 3 left side).

        Returned in ascending taxi-id order so downstream candidate
        enumeration (and therefore tie-broken match winners) does not
        depend on set-iteration order, i.e. on the hash seed.
        """
        out: set[int] = set()
        for z in partitions:
            out.update(self._by_partition[z])
        return sorted(out)

    def total_entries(self) -> int:
        """Total (taxi, partition) index entries — the ``(x+1)M`` term of
        the paper's memory-complexity analysis."""
        return sum(len(d) for d in self._by_partition)

    def memory_bytes(self) -> int:
        """Rough footprint of the index structures."""
        total = 0
        for d in self._by_partition:
            total += 64 + 56 * len(d)
        for s in self._partitions_of_taxi.values():
            total += 64 + 28 * len(s)
        return total
