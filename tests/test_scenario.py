"""Tests for scenario specs and construction."""

import pytest

from repro.sim.scenario import (
    ScenarioSpec,
    get_scenario,
    nonpeak_spec,
    peak_spec,
)


class TestSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="rush")

    @pytest.mark.parametrize("spacing,message", [
        (float("nan"), "spacing_m must be finite"),
        (0.0, "spacing_m must be positive"),
        (-5.0, "spacing_m must be positive"),
    ])
    def test_spacing_validated(self, spacing, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(spacing_m=spacing)

    def test_windows(self):
        assert peak_spec().window == (1, 8, False)
        assert nonpeak_spec().window == (5, 10, True)

    def test_hashable_for_memoisation(self):
        assert hash(peak_spec()) == hash(peak_spec())

    def test_get_scenario_memoises(self, test_spec):
        assert get_scenario(test_spec) is get_scenario(test_spec)


class TestScenario:
    def test_window_and_history_disjoint(self, test_scenario):
        day, hour, _weekend = test_scenario.spec.window
        start = (day * 24 + hour) * 3600.0
        in_window = test_scenario.history.window(start, start + 3600.0)
        assert len(in_window) == 0
        assert len(test_scenario.window_trips) > 0

    def test_requests_start_near_zero(self, test_scenario):
        reqs = test_scenario.requests()
        assert reqs
        assert 0.0 <= reqs[0].release_time < 3600.0
        assert all(r.release_time < 3600.0 for r in reqs)

    def test_peak_has_no_offline_by_default(self, test_scenario):
        assert all(not r.offline for r in test_scenario.requests())

    def test_nonpeak_has_offline(self, test_nonpeak_scenario):
        reqs = test_nonpeak_scenario.requests()
        offline = sum(1 for r in reqs if r.offline)
        assert offline == min(test_nonpeak_scenario.spec.offline_count, len(reqs))

    def test_explicit_offline_override(self, test_scenario):
        reqs = test_scenario.requests(offline_count=5)
        assert sum(1 for r in reqs if r.offline) == 5

    def test_fleet_factory(self, test_scenario):
        fleet = test_scenario.make_fleet(7, capacity=4, seed=3)
        assert len(fleet) == 7
        assert all(t.capacity == 4 for t in fleet)
        assert all(0 <= t.loc < test_scenario.network.num_vertices for t in fleet)

    def test_fleet_deterministic(self, test_scenario):
        a = [t.loc for t in test_scenario.make_fleet(5, seed=9)]
        b = [t.loc for t in test_scenario.make_fleet(5, seed=9)]
        assert a == b

    def test_partitioning_memoised(self, test_scenario):
        p1 = test_scenario.partitioning("bipartite")
        p2 = test_scenario.partitioning("bipartite")
        assert p1 is p2

    def test_partitioning_methods(self, test_scenario):
        for method in ("bipartite", "grid", "geo"):
            part = test_scenario.partitioning(method, 9)
            assert part.num_partitions >= 1
        with pytest.raises(ValueError):
            test_scenario.partitioning("voronoi")

    def test_default_config_scales_gamma(self, test_scenario):
        cfg = test_scenario.default_config()
        width = test_scenario.network.xy[:, 0].max() - test_scenario.network.xy[:, 0].min()
        assert cfg.search_range_m == pytest.approx(2500.0 * width / 9400.0, abs=1.0)

    def test_default_config_overrides(self, test_scenario):
        cfg = test_scenario.default_config(lam=0.5)
        assert cfg.lam == 0.5
