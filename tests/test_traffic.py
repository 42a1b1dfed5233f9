"""Tests for the congestion extension (``ScenarioSpec.congestion``)."""

import pytest

from repro.sim.scenario import ScenarioSpec, get_scenario


class TestCongestedScenario:
    def test_congestion_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(congestion=0.0)

    def test_congested_scenario_slower_trips(self):
        base_kwargs = dict(
            grid_rows=10, grid_cols=10, hourly_requests=120,
            history_days=2, num_partitions=9, seed=2,
        )
        free = get_scenario(ScenarioSpec(**base_kwargs))
        jammed = get_scenario(ScenarioSpec(congestion=0.7, **base_kwargs))
        assert jammed.network.speed_mps == pytest.approx(free.network.speed_mps * 0.7)
        # Same OD pair costs more time under congestion.
        r_free = free.requests()[0]
        assert jammed.engine.cost(r_free.origin, r_free.destination) > free.engine.cost(
            r_free.origin, r_free.destination
        )

    def test_congested_simulation_runs(self):
        from repro.sim.engine import Simulator

        spec = ScenarioSpec(
            grid_rows=10, grid_cols=10, hourly_requests=120,
            history_days=2, num_partitions=9, congestion=0.7, seed=2,
        )
        scenario = get_scenario(spec)
        metrics = Simulator(
            scenario.make_scheme("mt-share"),
            scenario.make_fleet(10),
            scenario.requests(),
        ).run()
        assert metrics.served > 0
