"""Tests for the system configuration and where each Table II value lives."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.baselines.pgreedydp import PGreedyDP
from repro.baselines.tshare import TShare
from repro.config import SystemConfig
from repro.core import matching, partition_filter, payment, routing
from repro.demand.request import RideRequest
from repro.index.partition_index import HORIZON_S
from repro.partitioning.bipartite import DEFAULT_TRANSITION_CLUSTERS
from repro.sim.scenario import Scenario
from tests.conftest import make_request

FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]

#: The Table II values that left the config are refused by their owners.
OWNERS = {
    "num_taxis": lambda scenario, v: scenario.make_fleet(v),
    "capacity": lambda scenario, v: scenario.make_fleet(1, capacity=v),
    "rho": lambda scenario, v: RideRequest.from_flexible_factor(0, 0.0, 0, 1, 60.0, rho=v),
}


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_taxis", 0),
            ("capacity", 0),
            ("search_range_m", 0.0),
            ("rho", 0.9),
            ("lam", 1.5),
            ("dispatch_window_s", -1.0),
            *[
                (field, value)
                for field in ("search_range_m", "rho", "dispatch_window_s")
                for value in (float("nan"), float("inf"))
            ],
        ],
    )
    def test_bad_values_rejected(self, test_scenario, field, value):
        with pytest.raises(ValueError):
            if field in FIELDS:
                SystemConfig(**{field: value})
            else:
                OWNERS[field](test_scenario, value)

    def test_defaults_match_table2(self):
        cfg = SystemConfig()
        assert cfg.search_range_m == 2500.0
        assert cfg.num_partitions == 150
        assert cfg.lam == pytest.approx(0.707)
        # The values with one setting in use, at the code that owns them.
        assert inspect.signature(Scenario.make_fleet).parameters["capacity"].default == 3
        assert inspect.signature(Scenario.requests).parameters["rho"].default == 1.3
        assert (payment.BETA, payment.ETA) == (0.8, 0.01)
        assert DEFAULT_TRANSITION_CLUSTERS == 20
        assert partition_filter.EPSILON == 1.0
        assert HORIZON_S == 3600.0
        assert routing.MAX_ATTEMPTS == 5
        assert matching.PROBABILISTIC_IDLE_SEATS == 0.5


class TestReplace:
    def test_replace_creates_variant(self):
        base = SystemConfig()
        variant = base.replace(search_range_m=1500.0, lam=0.5)
        assert variant.search_range_m == 1500.0
        assert variant.lam == 0.5
        assert base.search_range_m == 2500.0  # unchanged

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            SystemConfig().replace(search_range_m=-1.0)


class TestGamma:
    def _radius(self, scenario, wait_s, **overrides):
        scheme = scenario.make_scheme("mt-share", config=scenario.default_config(**overrides))
        request = make_request(release_time=0.0, direct_cost=100.0, rho=1.0 + wait_s / 100.0)
        return scheme.matcher._search_radius(request)  # noqa: SLF001

    def test_static_default(self, test_scenario):
        radius = self._radius(test_scenario, 600.0, search_range_m=2000.0,
                              mtshare_adaptive_gamma=False)
        assert radius == 2000.0

    def test_adaptive(self, test_scenario):
        # Eq. 2 at the network's own speed: there is no second copy of it.
        speed = test_scenario.network.speed_mps
        assert self._radius(test_scenario, 100.0) == pytest.approx(100.0 * speed)
        assert self._radius(test_scenario, 0.0) == 0.0

    def test_grid_cell_defaults_to_half_gamma(self, small_net, small_engine):
        for cls in (TShare, PGreedyDP):
            scheme = cls(small_net, small_engine, SystemConfig(search_range_m=2000.0))
            assert scheme._position_index._cell == 1000.0  # noqa: SLF001


# ----------------------------------------------------------------------
# no dead knobs: every field is read, and the docstring lists exactly them
# ----------------------------------------------------------------------
def _config_reads(tree: ast.AST) -> set[str]:
    """Attribute names read off anything called ``...config`` in ``tree``
    (``config.lam``, ``self._config.search_range_m``,
    ``scenario.default_config().num_partitions``)."""

    def owner(node: ast.AST) -> str:
        if isinstance(node, ast.Call):
            return owner(node.func)
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else ""

    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and owner(node.value).endswith("config")
    }


def test_every_field_is_read_outside_config():
    root = Path(repro.__file__).parent
    reads: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        if path != root / "config.py":
            reads |= _config_reads(ast.parse(path.read_text(encoding="utf-8")))
    unread = [name for name in FIELDS if name not in reads]
    assert not unread, f"SystemConfig fields no module reads: {unread}"


def test_docstring_lists_exactly_the_fields():
    documented = re.findall(r"^(\w+):$", inspect.getdoc(SystemConfig), flags=re.MULTILINE)
    assert documented == FIELDS
