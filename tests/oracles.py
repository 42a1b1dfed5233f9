"""Reference implementations the equivalence tests diff production against.

**Fleet advancement.**  Production advances only the taxis its due
index names (``Simulator._advance_all``);
:class:`FullSweepSimulator` is the sweep it replaced — every in-service
taxi, every boundary, fleet order — kept here so it cannot drift into
production.

**Insertion scoring.**  Production scores insertions through
:func:`repro.fleet.schedule.score_insertions`; the tests diff it
against the textbook enumeration kept in ``repro.fleet.schedule``
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`).  The wrappers that drive
that enumeration over a candidate set or a whole dispatch window live
here so they cannot drift into production.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import contracts
from repro.core.matching import insertion_start
from repro.core.window import WindowCostMatrix
from repro.fleet.schedule import (
    arrival_times,
    capacity_ok,
    deadlines_met,
    enumerate_insertions,
)
from repro.sim.engine import Simulator


class FullSweepSimulator(Simulator):
    """A :class:`Simulator` that treats every in-service taxi as due at
    every boundary: the O(fleet) sweep, verbatim, as the due index's oracle."""

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
