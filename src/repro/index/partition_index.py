"""Map-partition-based taxi index (Section IV-B3 of the paper).

For every map partition ``P_z`` the index keeps a taxi list ``P_z.L_t``
of the taxis that are currently in, or whose planned route will reach,
partition ``P_z`` within a horizon ``T_mp`` (the paper uses one hour),
annotated with the arrival time (a taxi -> arrival mapping; nothing
reads the list in arrival order, so it is not kept sorted).  The list
answers two questions during candidate searching: *which taxis can
be near this request's origin*, and *can taxi t reach the request's
partition before its pick-up deadline* (refinement rule 3).  Attached to
a :class:`~repro.fleet.table.FleetTable`, the index also writes every
change into the table's ``arrivals`` matrix, which whole-window
screening reads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..fleet.table import FleetTable

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
        self._table: FleetTable | None = None

    def attach(self, table: FleetTable) -> None:
        """Write every later change into ``table.arrivals``; attach before
        the first update.  Ids without a table row are indexed only here."""
        self._table = table

    def _column(self, taxi_id: int) -> np.ndarray | None:
        """``taxi_id``'s column of the attached table's arrivals, if any."""
        table = self._table
        row = None if table is None else table.row_of.get(taxi_id)
        return None if table is None or row is None else table.arrivals[:, row]

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
        column = self._column(taxi_id)
        for z, t in partition_arrivals.items():
            arrival = float(t)
            self._by_partition[z][taxi_id] = arrival
            touched.add(z)
            if column is not None:
                column[z] = arrival
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
        touched = self._partitions_of_taxi.pop(taxi_id, ())
        for z in touched:
            self._by_partition[z].pop(taxi_id, None)
        column = self._column(taxi_id) if touched else None
        if column is not None:
            column[:] = math.nan

    def arrival_map(self, partition: int) -> dict[int, float]:
        """The live taxi -> arrival mapping of one partition.

        Returned by reference so candidate screening can probe a whole
        pool with plain dict lookups; callers must treat it as
        read-only.
        """
        return self._by_partition[partition]

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
