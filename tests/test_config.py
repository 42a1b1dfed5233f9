"""Tests for the system configuration."""

import pytest

from repro.config import SystemConfig


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_taxis", 0),
            ("capacity", 0),
            ("search_range_m", 0.0),
            ("rho", 0.9),
            ("lam", 1.5),
            ("epsilon", -0.1),
            ("dispatch_window_s", -1.0),
            *[
                (field, value)
                for field in ("search_range_m", "rho", "epsilon", "dispatch_window_s")
                for value in (float("nan"), float("inf"))
            ],
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    def test_defaults_match_table2(self):
        cfg = SystemConfig()
        assert cfg.num_taxis == 2000
        assert cfg.capacity == 3
        assert cfg.search_range_m == 2500.0
        assert cfg.rho == 1.3
        assert cfg.lam == pytest.approx(0.707)
        assert cfg.epsilon == 1.0
        assert cfg.beta == 0.8
        assert cfg.eta == 0.01
        assert cfg.num_transition_clusters == 20
        assert cfg.index_horizon_s == 3600.0


class TestReplace:
    def test_replace_creates_variant(self):
        base = SystemConfig()
        variant = base.replace(rho=1.5, capacity=4)
        assert variant.rho == 1.5
        assert variant.capacity == 4
        assert base.rho == 1.3  # unchanged

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            SystemConfig().replace(capacity=-1)


class TestGamma:
    def test_static_default(self):
        cfg = SystemConfig(search_range_m=2000.0)
        assert cfg.gamma_for_wait(600.0) == 2000.0

    def test_adaptive(self):
        cfg = SystemConfig(adaptive_gamma=True, speed_mps=5.0)
        assert cfg.gamma_for_wait(100.0) == 500.0
        assert cfg.gamma_for_wait(-5.0) == 0.0

    def test_grid_cell_defaults_to_half_gamma(self):
        cfg = SystemConfig(search_range_m=2000.0)
        assert cfg.grid_cell_m == 1000.0

    def test_grid_cell_override(self):
        cfg = SystemConfig(baseline_grid_cell_m=333.0)
        assert cfg.grid_cell_m == 333.0
