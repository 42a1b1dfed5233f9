"""The fleet as fixed-width columns: the taxi state candidate screening reads.

Every mT-Share scheme keeps one (``MTShare.register_fleet``): greedy
:meth:`~repro.core.matching.Matcher.candidate_taxis` gathers a pool's
rows, :meth:`~repro.core.matching.Matcher.match` scores the rows it
keeps from their :class:`Planning` (:meth:`FleetTable.planning`), and
:meth:`~repro.core.matching.Matcher.screen_window` reads whole
columns.  A :class:`FleetTable` holds one row per taxi, in the
order it is given: the index layout, ascending by taxi id.  Every column
mirrors state that lives on a :class:`~repro.fleet.taxi.Taxi`, and is
written by the taxi where the state changes, never rebuilt from it: the
planning position (``plan_vertex``, ``plan_time``), ``spare`` seats, the
``busy`` flag and the current route's ``route_end`` (``set_plan``,
``clear_plan``, ``assign``, ``unassign``, ``break_down``,
``apply_delay``, and ``advance`` when its cursor moves).

``repro.analysis.contracts.check_fleet_table`` compares every column
with the taxis at every simulation boundary when contracts are armed.
The screen also reads ``P_z.L_t``, a taxi's cluster and its direction
unit, which are not columns here but the indexes' own
(:attr:`~repro.index.partition_index.PartitionTaxiIndex.arrivals`,
:attr:`~repro.core.mobility_cluster.MobilityClusterIndex.cluster` and
``.unit``), laid out by the same registration: their column ``k`` is
this table's row ``k``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .taxi import Taxi


class Planning(NamedTuple):
    """Where each of a list of taxis plans from: one entry per taxi.

    ``Taxi.position_at(now)`` of the ``k``-th taxi is ``(vertex[k],
    max(now, time[k]))``; ``busy[k]`` says whether it has pending stops
    and ``route_end[k]`` is :attr:`Taxi.route_end`.  Insertion scoring
    reads a dispatch's candidates through it, gathered from the fleet
    table (:meth:`FleetTable.planning`) or read off the objects
    (:meth:`of_taxis`); the two are equal wherever the table is current.
    """

    vertex: list[int]
    time: list[float]
    busy: list[bool]
    route_end: list[float]

    @classmethod
    def of_taxis(cls, taxis: Sequence[Taxi], now: float) -> Planning:
        """The planning state of ``taxis`` at ``now``, read off the objects."""
        positions = [taxi.position_at(now) for taxi in taxis]
        return cls(
            [vertex for vertex, _time in positions],
            [time for _vertex, time in positions],
            [not taxi.idle for taxi in taxis],
            [taxi.route_end for taxi in taxis],
        )


class FleetTable:
    """Column store of one fleet's taxi state.

    Parameters
    ----------
    taxis:
        The taxis, one row each in this order.  Each taxi is attached
        (:meth:`Taxi.attach`) and writes its own row from then on.

    Columns
    -------
    plan_vertex, plan_time:
        ``Taxi.position_at(now)`` is ``(plan_vertex, max(now, plan_time))``.
    spare:
        Seats not yet promised: ``capacity - committed``.
    busy:
        Whether the taxi has pending stops.
    route_end:
        :attr:`Taxi.route_end`: end time of the route its stops are
        served on; ``-inf`` when :meth:`Taxi.remaining_route_cost` is 0
        whatever the time.
    """

    __slots__ = (
        "taxis",
        "plan_vertex",
        "plan_time",
        "spare",
        "busy",
        "route_end",
    )

    def __init__(self, taxis: Sequence[Taxi]) -> None:
        n = len(taxis)
        self.taxis = list(taxis)
        self.plan_vertex = np.zeros(n, dtype=np.int64)
        self.plan_time = np.zeros(n, dtype=np.float64)
        self.spare = np.zeros(n, dtype=np.int64)
        self.busy = np.zeros(n, dtype=bool)
        self.route_end = np.full(n, -np.inf)
        for row, taxi in enumerate(taxis):
            taxi.attach(self, row)

    def ready(self, now: float, rows: np.ndarray) -> np.ndarray:
        """Planning times of ``rows`` at ``now``: ``Taxi.position_at``'s second half."""
        return np.maximum(now, self.plan_time[rows])

    def planning(self, rows: np.ndarray) -> Planning:
        """The planning state of ``rows``, one gather per column."""
        return Planning(
            self.plan_vertex[rows].tolist(),
            self.plan_time[rows].tolist(),
            self.busy[rows].tolist(),
            self.route_end[rows].tolist(),
        )

    def remaining_route_cost(self, rows: np.ndarray, ready: np.ndarray) -> np.ndarray:
        """``Taxi.remaining_route_cost(ready[k])`` of each row ``rows[k]``."""
        return np.maximum(0.0, self.route_end[rows] - ready)

    def memory_bytes(self) -> int:
        """Bytes held by the columns."""
        columns = (self.plan_vertex, self.plan_time, self.spare, self.busy, self.route_end)
        return sum(column.nbytes for column in columns)
