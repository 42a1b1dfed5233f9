"""The fleet as fixed-width columns: the taxi state a window screen reads.

A :class:`FleetTable` holds one row per taxi, ascending by taxi id,
which is the column order of :meth:`~repro.core.matching.Matcher.screen_window`.
Every column mirrors state that lives on an object, and is written by
that object where the state changes, never rebuilt from it:

* the planning position (``plan_vertex``, ``plan_time``), ``spare``
  seats, the ``busy`` flag and the current route's ``route_end`` by
  :class:`~repro.fleet.taxi.Taxi` (``set_plan``, ``clear_plan``,
  ``assign``, ``unassign``, ``break_down``, ``apply_delay``, and
  ``advance`` when its cursor moves);
* the mobility ``unit`` and ``cluster`` by
  :class:`~repro.core.mobility_cluster.MobilityClusterIndex`
  (``update_taxi``, and ``remove_request`` when a cluster dissolves).

``repro.analysis.contracts.check_fleet_table`` compares every column
with the objects at every simulation boundary when contracts are armed.
The screen also reads ``P_z.L_t``, which is not a column here but
:attr:`~repro.index.partition_index.PartitionTaxiIndex.arrivals`, whose
columns are this table's rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .taxi import Taxi


class FleetTable:
    """Column store of one fleet's taxi state.

    Parameters
    ----------
    fleet:
        The taxis, by id; row ``k`` is the ``k``-th smallest id.  Each
        taxi is attached (:meth:`Taxi.attach`) and writes its own rows
        from then on.

    Columns
    -------
    plan_vertex, plan_time:
        ``Taxi.position_at(now)`` is ``(plan_vertex, max(now, plan_time))``.
    spare:
        Seats not yet promised: ``capacity - committed``.
    busy:
        Whether the taxi has pending stops.
    route_end:
        End time of the route its stops are served on; ``-inf`` when
        :meth:`Taxi.remaining_route_cost` is 0 whatever the time.
    unit, cluster:
        The taxi's mobility direction unit (a NaN row: no vector) and
        the cluster whose taxi list holds it (``-1``: none).
    """

    __slots__ = (
        "taxis",
        "row_of",
        "plan_vertex",
        "plan_time",
        "spare",
        "busy",
        "route_end",
        "unit",
        "cluster",
    )

    def __init__(self, fleet: Mapping[int, Taxi]) -> None:
        taxis = [fleet[tid] for tid in sorted(fleet)]
        n = len(taxis)
        self.taxis = taxis
        self.row_of = {taxi.taxi_id: row for row, taxi in enumerate(taxis)}
        self.plan_vertex = np.zeros(n, dtype=np.int64)
        self.plan_time = np.zeros(n, dtype=np.float64)
        self.spare = np.zeros(n, dtype=np.int64)
        self.busy = np.zeros(n, dtype=bool)
        self.route_end = np.full(n, -np.inf)
        self.unit = np.full((n, 3), np.nan)
        self.cluster = np.full(n, -1, dtype=np.int64)
        for row, taxi in enumerate(taxis):
            taxi.attach(self, row)

    def ready(self, now: float, rows: np.ndarray) -> np.ndarray:
        """Planning times of ``rows`` at ``now``: ``Taxi.position_at``'s second half."""
        return np.maximum(now, self.plan_time[rows])

    def remaining_route_cost(self, rows: np.ndarray, ready: np.ndarray) -> np.ndarray:
        """``Taxi.remaining_route_cost(ready[k])`` of each row ``rows[k]``."""
        return np.maximum(0.0, self.route_end[rows] - ready)

    def memory_bytes(self) -> int:
        """Bytes held by the columns."""
        return sum(
            column.nbytes
            for column in (
                self.plan_vertex, self.plan_time, self.spare, self.busy,
                self.route_end, self.unit, self.cluster,
            )
        )
