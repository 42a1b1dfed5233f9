"""The fleet table (``repro.fleet.table``) and its contract.

Every column is written where its state changes, and
``contracts.check_fleet_table`` compares every column with the objects,
and the table's row order with the partition index's column order.
Each write site gets a mutation here: the site runs with its writes
undone, and the contract must fail on the next check.
"""

import math

import numpy as np
import pytest

from repro.analysis.contracts import ContractViolation, check_fleet_table
from repro.core.mobility_cluster import MobilityClusterIndex, MobilityVector, direction_unit
from repro.fleet.schedule import dropoff, pickup
from repro.fleet.table import FleetTable
from repro.fleet.taxi import Taxi, TaxiRoute
from repro.index.partition_index import PartitionTaxiIndex
from repro.sim.engine import Simulator
from tests.conftest import make_request

COLUMNS = ("plan_vertex", "plan_time", "spare", "busy", "route_end", "unit", "cluster")

EAST = MobilityVector(0.0, 0.0, 100.0, 0.0)


class World:
    """Three taxis, a cluster index attached to one table, and a
    partition index laid out over the same fleet."""

    def __init__(self):
        self.fleet = {tid: Taxi(taxi_id=tid, capacity=3, loc=tid) for tid in (4, 1, 9)}
        self.table = FleetTable(self.fleet)
        self.cindex = MobilityClusterIndex()
        self.cindex.attach(self.table)
        self.pindex = PartitionTaxiIndex(2)
        self.pindex.register(self.fleet)
        self.taxi = self.fleet[4]
        self.request = make_request(request_id=7, origin=2, destination=5, num_passengers=2)

    def check(self):
        check_fleet_table(self.table, self.cindex, self.pindex)

    def plan(self):
        """Assign the request and install a pick-up / drop-off route."""
        self.taxi.assign(self.request)
        self.taxi.set_plan(
            [pickup(self.request), dropoff(self.request)],
            TaxiRoute(nodes=[3, 2, 5], times=[10.0, 20.0, 50.0], stop_positions=[1, 2]),
        )


def skipping_writes(method, table):
    """``method`` with every fleet-table write it makes undone."""

    def mutated(*args, **kwargs):
        saved = [getattr(table, name).copy() for name in COLUMNS]
        result = method(*args, **kwargs)
        for name, column in zip(COLUMNS, saved):
            getattr(table, name)[...] = column
        return result

    return mutated


class TestColumns:
    def test_rows_ascend_by_taxi_id_and_start_from_the_taxis(self):
        world = World()
        table = world.table
        assert [taxi.taxi_id for taxi in table.taxis] == [1, 4, 9]
        assert table.row_of == {1: 0, 4: 1, 9: 2}
        assert table.plan_vertex.tolist() == [1, 4, 9]
        assert table.spare.tolist() == [3, 3, 3] and not table.busy.any()
        assert np.isnan(table.unit).all()
        assert table.cluster.tolist() == [-1, -1, -1]
        world.check()

    def test_a_taxis_life_keeps_its_row(self):
        world = World()
        taxi, row = world.taxi, 1
        world.plan()
        world.check()
        assert world.table.spare[row] == 1 and world.table.busy[row]
        assert (world.table.plan_vertex[row], world.table.plan_time[row]) == (3, 10.0)
        assert world.table.route_end[row] == 50.0
        taxi.apply_delay(5.0)
        taxi.advance(25.0)  # the pick-up fires at 25
        world.check()
        assert (world.table.plan_vertex[row], world.table.plan_time[row]) == (5, 55.0)
        taxi.advance(60.0)  # drop-off: the plan completes
        world.check()
        assert world.table.spare[row] == 3 and not world.table.busy[row]
        assert world.table.route_end[row] == -math.inf

    def test_screen_reads_match_the_objects(self):
        world = World()
        world.plan()
        rows = np.arange(3)
        for now in (0.0, 15.0, 80.0):
            ready = world.table.ready(now, rows)
            cost = world.table.remaining_route_cost(rows, ready)
            for row, taxi in enumerate(world.table.taxis):
                node, at = taxi.position_at(now)
                assert (world.table.plan_vertex[row], ready[row]) == (node, at)
                assert cost[row] == taxi.remaining_route_cost(at)

    def test_index_columns(self):
        world = World()
        world.cindex.add_request(1, EAST)
        assert world.cindex.update_taxi(9, EAST) is not None
        world.cindex.update_taxi(1, MobilityVector(0.0, 0.0, 0.0, 0.0))
        world.check()
        assert world.table.unit[2].tolist() == list(direction_unit(100.0, 0.0))
        assert world.table.unit[0].tolist() == [0.0, 0.0, 0.0]
        world.cindex.remove_request(1)  # the cluster dissolves
        world.check()
        assert world.table.cluster.tolist() == [-1, -1, -1]


def _set_plan(world):
    world.taxi.set_plan([], TaxiRoute(nodes=[3, 2], times=[10.0, 20.0]))


def _clear_plan(world):
    world.taxi.clear_plan()


def _assign(world):
    world.taxi.assign(world.request)


def _unassign(world):
    world.taxi.unassign(world.request)


def _break_down(world):
    world.taxi.break_down()


def _apply_delay(world):
    world.taxi.apply_delay(30.0)


def _advance(world):
    world.taxi.advance(15.0)


def _cluster_update(world):
    world.cindex.update_taxi(4, EAST)


def _cluster_dissolve(world):
    world.cindex.remove_request(1)


def _planned(world):
    world.plan()


def _clustered(world):
    world.cindex.add_request(1, EAST)
    world.cindex.update_taxi(4, EAST)


#: ``(owner, method, set-up, the call that must write)`` per write site.
WRITE_SITES = {
    "Taxi.set_plan": (Taxi, "set_plan", None, _set_plan),
    "Taxi.clear_plan": (Taxi, "clear_plan", _planned, _clear_plan),
    "Taxi.assign": (Taxi, "assign", None, _assign),
    "Taxi.unassign": (Taxi, "unassign", _assign, _unassign),
    "Taxi.break_down": (Taxi, "break_down", _planned, _break_down),
    "Taxi.apply_delay": (Taxi, "apply_delay", _planned, _apply_delay),
    "Taxi.advance": (Taxi, "advance", _planned, _advance),
    "MobilityClusterIndex.update_taxi": (
        MobilityClusterIndex, "update_taxi", None, _cluster_update),
    "MobilityClusterIndex.remove_request": (
        MobilityClusterIndex, "remove_request", _clustered, _cluster_dissolve),
}


@pytest.mark.parametrize("site", WRITE_SITES)
def test_every_write_site_is_held_by_the_contract(monkeypatch, site):
    """Unmutated, the site keeps the table equal to the objects; with
    its writes undone, ``check_fleet_table`` fails."""
    owner, name, setup, call = WRITE_SITES[site]
    for mutate in (False, True):
        world = World()
        if setup is not None:
            setup(world)
        world.check()
        if mutate:
            monkeypatch.setattr(owner, name, skipping_writes(getattr(owner, name), world.table))
            call(world)
            with pytest.raises(ContractViolation, match="fleet table"):
                world.check()
            monkeypatch.undo()
        else:
            call(world)
            world.check()


def test_a_run_checks_the_table_at_its_boundaries(test_scenario, monkeypatch):
    """The simulator runs the contract at every boundary: a seat write
    that never lands fails the run, not a later screen."""
    scheme = test_scenario.make_scheme("window-lap")
    sim = Simulator(scheme, test_scenario.make_fleet(12, seed=1), test_scenario.requests())
    monkeypatch.setattr(Taxi, "_write_seats", lambda taxi: None)
    with pytest.raises(ContractViolation, match="fleet table spare"):
        sim.run()


def test_a_run_checks_the_table_order_against_the_partition_index(test_scenario, monkeypatch):
    """The window screen pairs table row ``k`` with arrivals column ``k``:
    a partition index laid out descending by id fails the run."""
    register = PartitionTaxiIndex.register

    def descending(index, taxi_ids):
        register(index, taxi_ids)
        index.taxi_ids = index.taxi_ids[::-1].copy()
        index.column_of = {tid: k for k, tid in enumerate(index.taxi_ids.tolist())}

    scheme = test_scenario.make_scheme("window-lap")
    sim = Simulator(scheme, test_scenario.make_fleet(12, seed=1), test_scenario.requests())
    monkeypatch.setattr(PartitionTaxiIndex, "register", descending)
    with pytest.raises(ContractViolation, match="partition index columns"):
        sim.run()
