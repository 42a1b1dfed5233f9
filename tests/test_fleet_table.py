"""The fleet table (``repro.fleet.table``) and its contract.

Every mT-Share scheme keeps one, built by ``MTShare.register_fleet``
and read by greedy search and the window screen alike.  Every column
is written where its state changes, and
``contracts.check_fleet_table`` compares every column with the taxis.
Each write site gets a mutation here, on a layout built by hand and on
an ``mt-share`` scheme's own table: the site runs with its writes
undone, and the contract must fail on the next check.  The cluster
index's columns share the table's layout; the fuzz's dict mirror
(``tests/test_fuzz.py``) checks their writes.
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

COLUMNS = ("plan_vertex", "plan_time", "spare", "busy", "route_end")

EAST = MobilityVector(0.0, 0.0, 100.0, 0.0)


class World:
    """Three taxis, both indexes and a fleet table over one layout, as
    ``MTShare.register_fleet`` lays them out; given a scheme, the
    scheme's own registration does it and the table is the one its
    matcher reads."""

    def __init__(self, scheme=None):
        self.fleet = {tid: Taxi(taxi_id=tid, capacity=3, loc=tid) for tid in (4, 1, 9)}
        if scheme is None:
            self.pindex = PartitionTaxiIndex(2)
            self.pindex.register(self.fleet)
            self.cindex = MobilityClusterIndex()
            self.cindex.register(self.pindex.column_of)
            self.table = FleetTable([self.fleet[tid] for tid in self.pindex.taxi_ids])
        else:
            scheme.register_fleet(self.fleet, now=0.0)
            self.pindex, self.cindex = scheme.partition_index, scheme.cluster_index
            self.table = scheme._table
            assert scheme.matcher._table is self.table
        self.taxi = self.fleet[4]
        self.request = make_request(request_id=7, origin=2, destination=5, num_passengers=2)

    def check(self):
        check_fleet_table(self.table)

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
        assert table.plan_vertex.tolist() == [1, 4, 9]
        assert table.spare.tolist() == [3, 3, 3] and not table.busy.any()
        assert table.memory_bytes() == 3 * (8 + 8 + 8 + 1 + 8)
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
        """The indexes' column ``k`` is the table's row ``k``."""
        world = World()
        assert world.pindex.column_of is world.cindex.column_of
        world.cindex.add_request(1, EAST)
        cid = world.cindex.update_taxi(9, EAST)
        world.cindex.update_taxi(1, MobilityVector(0.0, 0.0, 0.0, 0.0))
        assert world.cindex.cluster.tolist() == [cid, -1, cid] and cid is not None
        assert world.cindex.unit[2].tolist() == list(direction_unit(100.0, 0.0))
        assert world.cindex.unit[0].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(world.cindex.unit[1]).all()
        world.cindex.remove_request(1)  # the cluster dissolves
        assert world.cindex.cluster.tolist() == [-1, -1, -1]


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


def _planned(world):
    world.plan()


#: ``(owner, method, set-up, the call that must write)`` per write site.
WRITE_SITES = {
    "Taxi.set_plan": (Taxi, "set_plan", None, _set_plan),
    "Taxi.clear_plan": (Taxi, "clear_plan", _planned, _clear_plan),
    "Taxi.assign": (Taxi, "assign", None, _assign),
    "Taxi.unassign": (Taxi, "unassign", _assign, _unassign),
    "Taxi.break_down": (Taxi, "break_down", _planned, _break_down),
    "Taxi.apply_delay": (Taxi, "apply_delay", _planned, _apply_delay),
    "Taxi.advance": (Taxi, "advance", _planned, _advance),
}


def mutate_write_site(monkeypatch, make_world, site):
    """Unmutated, ``site`` keeps the table of ``make_world()`` equal to
    the objects; with its writes undone, ``check_fleet_table`` fails."""
    owner, name, setup, call = WRITE_SITES[site]
    for mutate in (False, True):
        world = make_world()
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


@pytest.mark.parametrize("site", WRITE_SITES)
def test_every_write_site_is_held_by_the_contract(monkeypatch, site):
    """Every write site, on a layout built by hand."""
    mutate_write_site(monkeypatch, World, site)


@pytest.mark.parametrize("site", WRITE_SITES)
def test_every_write_site_is_held_on_an_mt_share_table(monkeypatch, test_scenario, site):
    """Every write site, on the table a greedy ``mt-share`` scheme
    builds in ``register_fleet`` and its matcher reads."""
    mutate_write_site(
        monkeypatch, lambda: World(test_scenario.make_scheme("mt-share")), site
    )


def test_a_run_checks_the_table_at_its_boundaries(test_scenario, monkeypatch):
    """The simulator runs the contract at every boundary: a seat write
    that never lands fails the run, not a later screen."""
    scheme = test_scenario.make_scheme("window-lap")
    sim = Simulator(scheme, test_scenario.make_fleet(12, seed=1), test_scenario.requests())
    monkeypatch.setattr(Taxi, "_write_seats", lambda taxi: None)
    with pytest.raises(ContractViolation, match="fleet table spare"):
        sim.run()


@pytest.mark.parametrize("scheme_name", ("mt-share", "mt-share-pro"))
def test_a_greedy_run_checks_the_table_at_its_boundaries(test_scenario, monkeypatch, scheme_name):
    """The greedy schemes read the table too, and run the same contract
    at every boundary: a plan write that never lands fails the run."""
    scheme = test_scenario.make_scheme(scheme_name)
    sim = Simulator(scheme, test_scenario.make_fleet(12, seed=1), test_scenario.requests())
    monkeypatch.setattr(Taxi, "_write_plan", lambda taxi: None)
    with pytest.raises(ContractViolation, match="fleet table"):
        sim.run()
