"""Scalar insertion oracle for the kernel-equivalence tests.

Production scores insertions through
:func:`repro.fleet.schedule.score_insertions`; the tests diff it
against the textbook enumeration kept in ``repro.fleet.schedule``
(:func:`enumerate_insertions` + :func:`arrival_times` +
:func:`capacity_ok` + :func:`deadlines_met`).  The wrappers that drive
that enumeration over a candidate set or a whole dispatch window live
here so they cannot drift into production.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import insertion_start
from repro.core.window import WindowCostMatrix
from repro.fleet.schedule import (
    arrival_times,
    capacity_ok,
    deadlines_met,
    enumerate_insertions,
)


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
