"""Map-partition-based taxi index (Section IV-B3 of the paper).

For every map partition ``P_z`` the index keeps a taxi list ``P_z.L_t``
of the taxis that are currently in, or whose planned route will reach,
partition ``P_z`` within a horizon ``T_mp`` (the paper uses one hour),
annotated with the arrival time.  All ``kappa`` lists live in one
``(kappa, taxis)`` float64 matrix, :attr:`PartitionTaxiIndex.arrivals`:
cell ``(z, k)`` is the arrival of the ``k``-th smallest registered taxi
id at ``P_z``, NaN where ``P_z`` does not list it.  The matrix answers
two questions during candidate searching: *which taxis can be near this
request's origin* (the columns some disc partition lists), and *can
taxi t reach the request's partition before its pick-up deadline*
(refinement rule 3).  Greedy search reads one taxi at a time, the
window screen whole rows.  A dense matrix is not the paper's
``(x+1)M`` lists: it trades their size for a store both readers share.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence

import numpy as np

#: ``T_mp``: route positions further than this in the future are not
#: indexed (the paper: one hour).
HORIZON_S = 3600.0


class PartitionTaxiIndex:
    """Per-partition taxi lists with arrival times, as one matrix.

    Parameters
    ----------
    num_partitions:
        Number of map partitions ``kappa``, the row count of
        :attr:`arrivals`.

    Attributes
    ----------
    arrivals:
        ``(num_partitions, taxis)``: the indexed arrival of each taxi at
        each partition, NaN where the partition does not list it.
    taxi_ids:
        The registered ids, ascending; column ``k`` is ``taxi_ids[k]``.
    column_of:
        Taxi id -> its column.  With :attr:`taxi_ids` this is the one
        layout of every per-taxi store of a scheme: the cluster index's
        columns and the window scheme's fleet-table rows follow it.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions
        self.register(())

    def register(self, taxi_ids: Iterable[int]) -> None:
        """Give each of ``taxi_ids`` a column, ascending by id, and list
        none of them anywhere.  Call before the first update."""
        self.taxi_ids = sorted(taxi_ids)
        self.column_of = {taxi_id: k for k, taxi_id in enumerate(self.taxi_ids)}
        self.arrivals = np.full((self.num_partitions, len(self.taxi_ids)), math.nan)

    def update_taxi(
        self,
        taxi_id: int,
        partition_arrivals: dict[int, float],
    ) -> None:
        """Replace the indexed partitions of ``taxi_id``.

        ``partition_arrivals`` maps partition id to the earliest arrival
        time along the taxi's (re)planned route; entries are taken as
        given (the caller applies the horizon against *now*).  Raises
        ``KeyError`` for an id that was never registered.
        """
        column = self.arrivals[:, self.column_of[taxi_id]]
        column.fill(math.nan)
        for z, t in partition_arrivals.items():
            column[z] = t

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
        """List ``taxi_id`` in no partition."""
        self.arrivals[:, self.column_of[taxi_id]] = math.nan

    def listed_columns(self, partitions: Sequence[int]) -> np.ndarray:
        """The columns some of ``partitions`` lists (Eq. 3 left side),
        ascending, which is ascending taxi id.  A listed cell is a time,
        and ``NaN <= inf`` is False."""
        return (self.arrivals.take(partitions, axis=0) <= math.inf).any(axis=0).nonzero()[0]

    def total_entries(self) -> int:
        """Total (taxi, partition) index entries — the ``(x+1)M`` term of
        the paper's memory-complexity analysis."""
        return int(np.count_nonzero(~np.isnan(self.arrivals)))

    def memory_bytes(self) -> int:
        """Bytes held by the arrivals matrix."""
        return self.arrivals.nbytes
