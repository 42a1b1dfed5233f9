"""Tests for the experiment runner, reporting, and figure functions."""

from dataclasses import replace

import pytest

from repro.experiments.claims import REGISTRY
from repro.reporting import ExperimentResult
from repro.sim.scenario import Scenario
from repro.experiments.runner import BenchScale, RunKey, bench_scale, clear_cache, run
from repro.experiments import figures


@pytest.fixture(scope="module")
def mini_scale(test_spec, test_nonpeak_spec):
    """A benchmark scale over the tiny shared test scenarios."""
    return BenchScale(
        name="mini",
        peak=test_spec,
        nonpeak=test_nonpeak_spec,
        taxi_counts=(10, 20),
        default_taxis=15,
    )


class TestReporting:
    def test_add_series_validates_length(self):
        res = ExperimentResult("t", "x", [1, 2], "y")
        with pytest.raises(ValueError):
            res.add_series("a", [1])

    def test_value_lookup(self):
        res = ExperimentResult("t", "x", [1, 2], "y")
        res.add_series("a", [10, 20])
        assert res.value("a", 2) == 20

    def test_render_contains_everything(self):
        res = ExperimentResult("My table", "taxis", [5], "served")
        res.add_series("scheme", [3.14159])
        res.notes.append("a note")
        text = res.render()
        assert "My table" in text
        assert "scheme" in text
        assert "3.14" in text
        assert "a note" in text


class TestRunner:
    def test_run_caches(self, mini_scale):
        clear_cache()
        key = RunKey(spec=mini_scale.peak, scheme="no-sharing", num_taxis=10)
        first = run(key)
        second = run(key)
        assert first is second

    def test_different_keys_differ(self, mini_scale):
        a = run(RunKey(spec=mini_scale.peak, scheme="no-sharing", num_taxis=10))
        b = run(RunKey(spec=mini_scale.peak, scheme="no-sharing", num_taxis=20))
        assert a is not b

    def test_config_overrides_apply(self, mini_scale):
        m = run(
            RunKey(
                spec=mini_scale.peak,
                scheme="mt-share",
                num_taxis=10,
                config_overrides=(("lam", 0.5),),
            )
        )
        assert m.served >= 0

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale().name == "full"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        assert bench_scale().name == "quick"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(ValueError):
            bench_scale()


class TestFigures:
    """Each figure function returns a well-formed result on the mini scale."""

    def test_fig5(self, mini_scale):
        res = figures.fig5_dataset_stats(mini_scale)
        assert "workday" in res.series and "weekend" in res.series
        assert res.notes  # carries the paper's travel-time percentiles
        assert res.x_values[-1] == "all hours"
        for p in ("p50", "p90"):
            assert all(v > 0 for v in res.series[f"trip {p} min"])
        assert res.value("trip p50 min", "all hours") <= res.value("trip p90 min", "all hours")

    def test_fig6_and_friends_share_runs(self, mini_scale):
        served = figures.fig6_served_peak(mini_scale)
        response = figures.fig7_response_peak(mini_scale)
        assert set(served.series) == set(response.series)
        for scheme, values in served.series.items():
            assert all(v >= 0 for v in values)

    def test_table3(self, mini_scale):
        res = figures.table3_candidates_peak(mini_scale)
        assert "mt-share" in res.series

    def test_fig10_includes_pro(self, mini_scale):
        res = figures.fig10_served_nonpeak(mini_scale)
        assert "mt-share-pro" in res.series

    def test_table4(self, mini_scale):
        res = figures.table4_memory(mini_scale)
        assert res.value("mt-share", "index_kb") > 0

    def test_fig14b_capacity_monotone_tendency(self, mini_scale):
        res = figures.fig14b_capacity(mini_scale, capacities=(2, 6))
        served = res.series["mt-share"]
        assert served[1] >= served[0] * 0.85  # more seats never hurt much

    def test_fig19_payment_percentages(self, mini_scale):
        res = figures.fig19_rho_payment(mini_scale, rhos=(1.3,))
        assert 0.0 <= res.series["passenger saving %"][0] <= 100.0
        assert res.series["driver gain %"][0] >= 0.0

    def test_fig20_lambda(self, mini_scale):
        res = figures.fig20_lambda(mini_scale, thetas_deg=(30.0, 75.0))
        assert len(res.series["served"]) == 2

    def test_registry_complete(self):
        expected = {
            "fig5", "fig6", "fig7", "table3", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "table4",
            "fig14a", "fig14b", "table5", "fig15", "fig16",
            "fig17", "fig18", "fig19", "fig20", "fig21", "fig21v",
            "fig22w",
        }
        assert set(figures.ALL_EXPERIMENTS) == expected
        ablations = {
            "adaptive_gamma", "steering", "cruising", "redispatch", "traffic",
            "window_size", "rebalance_imbalance",
        }
        assert set(REGISTRY) == expected | ablations | {"claims"}

    def test_fig21v_runs_on_the_scale_seed(self, mini_scale, monkeypatch):
        built = []

        def recording(spec):
            built.append(spec)
            return Scenario(spec)

        monkeypatch.setattr(figures, "Scenario", recording)
        scale = replace(mini_scale, peak=replace(mini_scale.peak, seed=11))
        figures.fig21v_vertex_scalability(scale, grid_sides=(6,))
        assert built and all(spec.seed == 11 for spec in built)
