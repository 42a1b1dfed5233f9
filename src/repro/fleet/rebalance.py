"""Demand-learning rebalancing of idle taxis (proactive repositioning).

The paper's dispatcher is purely reactive: idle taxis sit where their
last drop-off left them (or cruise undirected in the non-peak
probabilistic mode), so a supply/demand-imbalanced workload — the
morning one-way commute surge — starves the deficit zones while surplus
zones hoard parked taxis.  This module closes that loop with the
hybrid demand-learning policy shape of Li & Allan (PAPERS.md): at a
configurable cadence the simulator censuses per-partition *supply*
(parked idle taxis) against *predicted near-future demand*
(:meth:`~repro.demand.prediction.DemandPredictor.rate_at_time` at
``now + lead_s``), and a small greedy transport assignment steers
surplus idle taxis onto passenger-less cruise routes toward the
landmark of each deficit partition.

Repositioning cruises are ordinary stop-less
:class:`~repro.fleet.taxi.TaxiRoute` plans, exactly like the non-peak
demand-seeking cruises: a cruising taxi stays ``idle`` (no pending
stops), its :meth:`~repro.fleet.taxi.Taxi.remaining_route_cost` is
zero, and the moment a real match installs a plan the cruise is torn
down for free.

Everything here is deterministic and effect-free: the planner is pure
arithmetic over the census and the predictor's fitted rates (no RNG,
no clock), so the simulator's ``rebalance.tick`` handler runs inside
the purity guard of ``tests/test_determinism.py`` like every other
handler and rebalanced runs stay bit-reproducible.

The CLI grammar (``--rebalance cadence_s=120,max_moves=8,...``) is
parsed by :func:`parse_rebalance_spec`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..config import parse_spec, require_finite
from ..demand.prediction import DemandPredictor
from ..network.graph import RoadNetwork
from ..network.landmarks import LandmarkGraph
from ..network.shortest_path import ShortestPathEngine
from .taxi import TaxiRoute

__all__ = [
    "RebalanceMove",
    "RebalanceSpec",
    "Rebalancer",
    "parse_rebalance_spec",
]


@dataclass(frozen=True, slots=True)
class RebalanceSpec:
    """Everything that determines the repositioning policy, hashable.

    Attributes
    ----------
    cadence_s:
        Repositioning cadence: ``rebalance.tick`` boundaries sit on the
        absolute ``cadence_s`` grid (armed by request releases, so the
        tick sequence is a function of the workload alone).  ``0``
        disables rebalancing entirely.
    lead_s:
        How far ahead demand is predicted: the census compares supply
        against the predictor's rates at ``now + lead_s``, so taxis
        start moving *before* the surge arrives.
    max_moves:
        Upper bound on repositioning cruises installed per tick; keeps
        any single tick from emptying a partition.  ``0`` disables.
    min_surplus:
        A partition donates taxis only while it keeps at least its own
        predicted target plus this safety margin.
    max_cruise_s:
        Donors farther than this (landmark-to-landmark travel seconds)
        from a deficit partition are not sent — a cruise that long
        would arrive after the predicted surge.
    """

    cadence_s: float = 120.0
    lead_s: float = 300.0
    max_moves: int = 8
    min_surplus: int = 1
    max_cruise_s: float = 900.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.cadence_s < 0:
            raise ValueError("cadence_s must be non-negative")
        if self.lead_s < 0:
            raise ValueError("lead_s must be non-negative")
        if self.max_moves < 0:
            raise ValueError("max_moves must be non-negative")
        if self.min_surplus < 0:
            raise ValueError("min_surplus must be non-negative")
        if self.max_cruise_s <= 0:
            raise ValueError("max_cruise_s must be positive")

    @property
    def enabled(self) -> bool:
        """Whether this spec can reposition any taxi at all."""
        return self.cadence_s > 0.0 and self.max_moves > 0


def parse_rebalance_spec(text: str) -> RebalanceSpec:
    """Parse the ``--rebalance`` grammar: ``key=value[,key=value...]``.

    Recognised keys are exactly the :class:`RebalanceSpec` fields, e.g.
    ``"cadence_s=120,lead_s=300,max_moves=8"``.  The words ``"on"``
    (and an empty string) yield the default *enabled* spec; ``"off"``
    yields a disabled one.
    """
    stripped = text.strip().lower()
    if stripped in ("", "on", "default"):
        return RebalanceSpec()
    if stripped == "off":
        return RebalanceSpec(cadence_s=0.0)
    return parse_spec(RebalanceSpec, text)


@dataclass(frozen=True, slots=True)
class RebalanceMove:
    """One planned repositioning: a taxi sent towards a deficit zone."""

    taxi_id: int
    source: int
    target: int
    cost_s: float


class Rebalancer:
    """Plans repositioning moves and builds their cruise routes.

    The object is stateless across ticks: every decision is a pure
    function of the census the simulator hands it, the spec, and the
    fitted demand rates — which is what keeps rebalanced runs
    deterministic and lets the ``rebalance.tick`` handler run under
    the dispatch-path purity guard (``tests/test_determinism.py``).
    """

    def __init__(
        self,
        spec: RebalanceSpec,
        predictor: DemandPredictor,
        landmarks: LandmarkGraph,
        engine: ShortestPathEngine,
        network: RoadNetwork,
    ) -> None:
        self._spec = spec
        self._predictor = predictor
        self._landmarks = landmarks
        self._engine = engine
        self._network = network

    # ------------------------------------------------------------------
    @property
    def spec(self) -> RebalanceSpec:
        """The policy parameters."""
        return self._spec

    def partition_of(self, vertex: int) -> int:
        """The partition a vertex belongs to (census helper)."""
        return self._landmarks.partition_of(vertex)

    # ------------------------------------------------------------------
    def plan_moves(
        self,
        supply: Mapping[int, Sequence[int]],
        in_flight: Mapping[int, int],
        now: float,
    ) -> list[RebalanceMove]:
        """Greedy transport assignment from surplus to deficit zones.

        Parameters
        ----------
        supply:
            Parked idle taxis per partition (each value sorted by id).
        in_flight:
            Repositioning cruises already under way, counted toward
            their *target* partition so a deficit is never over-served
            across consecutive ticks.
        now:
            The tick instant; demand is read at ``now + lead_s``.

        The assignment is deliberately greedy rather than an exact
        transport solve: deficits are served in severity order, each
        unit from the nearest partition still holding spare taxis
        (ties break on the lower partition id, then the lower taxi
        id), which is deterministic and linear in the move budget.
        """
        spec = self._spec
        horizon = now + spec.lead_s
        kappa = self._landmarks.num_partitions
        rates = [self._predictor.rate_at_time(p, horizon) for p in range(kappa)]
        total_rate = sum(rates)
        parked = sum(len(ids) for ids in supply.values())
        if total_rate <= 0.0 or parked == 0:
            return []
        # Proportional targets over the whole idle pool (parked plus
        # already-moving): partition p "deserves" its demand share.
        pool = parked + sum(in_flight.values())
        targets = [pool * rate / total_rate for rate in rates]
        deficits: list[tuple[float, int]] = []
        donors: dict[int, list[int]] = {}
        for p in range(kappa):
            here = list(supply.get(p, ()))
            have = len(here) + in_flight.get(p, 0)
            gap = targets[p] - have
            if gap >= 1.0:
                deficits.append((gap, p))
                continue
            keep = int(math.ceil(max(targets[p] - in_flight.get(p, 0), 0.0)))
            # ``min_surplus=0`` would count one taxi more than is parked.
            spare = min(len(here) - keep - spec.min_surplus + 1, len(here))
            if spare >= 1:
                # Donate from the tail of the id-sorted parked list so
                # the donated set is deterministic.
                donors[p] = sorted(here)[len(here) - spare:]
        if not deficits or not donors:
            return []
        deficits.sort(key=lambda item: (-item[0], item[1]))
        moves: list[RebalanceMove] = []
        for gap, target in deficits:
            want = int(gap)
            while want > 0 and len(moves) < spec.max_moves:
                best: tuple[float, int] | None = None
                for source in sorted(donors):
                    cost = float(self._landmarks.landmark_cost(source, target))
                    if cost > spec.max_cruise_s:
                        continue
                    if best is None or (cost, source) < best:
                        best = (cost, source)
                if best is None:
                    break  # no donor close enough to help this zone
                cost, source = best
                taxi_id = donors[source].pop(0)
                if not donors[source]:
                    del donors[source]
                moves.append(
                    RebalanceMove(taxi_id=taxi_id, source=source, target=target, cost_s=cost)
                )
                want -= 1
                if not donors:
                    return moves
            if len(moves) >= spec.max_moves:
                break
        return moves

    def cruise_route(
        self, start_node: int, start_time: float, partition: int
    ) -> TaxiRoute | None:
        """A stop-less cruise from ``start_node`` to a partition's landmark.

        Returns ``None`` when the taxi is already at the landmark or no
        path exists; the route's times follow the network's constant
        speed, so abandoning it mid-way leaves the taxi at a well-timed
        vertex like any other plan.
        """
        target = self._landmarks.landmark(partition)
        if target == start_node:
            return None
        path = self._engine.path(start_node, target)
        if len(path) < 2:
            return None
        return TaxiRoute.cruise(self._network, path, start_time)
