"""Tests for the hour-aware demand predictor."""

import numpy as np
import pytest

from repro.demand.dataset import TripDataset
from repro.demand.prediction import DemandPredictor


def dataset(times, origins):
    m = len(times)
    return TripDataset(
        release_times=np.asarray(times, dtype=float),
        origins=np.asarray(origins),
        destinations=np.asarray([0] * m),
        taxi_ids=np.asarray([0] * m),
    )


class TestFit:
    def test_counts_by_hour_and_partition(self):
        labels = np.array([0, 0, 1])
        # Two trips from partition 0 at hour 8, one from partition 1 at hour 9,
        # all on day 0.
        ds = dataset([8 * 3600.0, 8 * 3600.0 + 10, 9 * 3600.0], [0, 1, 2])
        pred = DemandPredictor.fit(ds, labels, 2)
        assert pred.rate(0, 8) == pytest.approx(2.0)
        assert pred.rate(1, 9) == pytest.approx(1.0)
        assert pred.rate(0, 9) == 0.0

    def test_averages_over_days(self):
        labels = np.array([0])
        ds = dataset([8 * 3600.0, 86400.0 + 8 * 3600.0], [0, 0])  # two days
        pred = DemandPredictor.fit(ds, labels, 1)
        assert pred.rate(0, 8) == pytest.approx(1.0)

    def test_empty_history(self):
        pred = DemandPredictor.fit(dataset([], []), np.array([0, 1]), 2)
        assert pred.rate(0, 8) == 0.0

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DemandPredictor(np.zeros((3, 23)))
        with pytest.raises(ValueError):
            DemandPredictor(-np.ones((2, 24)))


class TestQueries:
    @pytest.fixture()
    def pred(self):
        rates = np.zeros((3, 24))
        rates[0, 8] = 10.0
        rates[1, 8] = 5.0
        rates[2, 20] = 7.0
        return DemandPredictor(rates)

    def test_hour_wraps(self, pred):
        assert pred.rate(0, 32) == pred.rate(0, 8)

    def test_rate_at_time(self, pred):
        assert pred.rate_at_time(0, 8 * 3600.0 + 5.0) == 10.0
        assert pred.rate_at_time(0, (24 + 8) * 3600.0) == 10.0

    def test_memory(self, pred):
        assert pred.memory_bytes() > 0


class TestScenarioIntegration:
    def test_predictor_fits_scenario_history(self, test_scenario):
        part = test_scenario.partitioning("bipartite")
        pred = test_scenario.demand_predictor(part)
        assert pred.rates.shape == (part.num_partitions, 24)
        # Morning hours carry demand in the synthetic workday trace.
        total_morning = sum(pred.rate(z, 8) for z in range(part.num_partitions))
        total_night = sum(pred.rate(z, 3) for z in range(part.num_partitions))
        assert total_morning > total_night

    def test_predictor_memoised(self, test_scenario):
        part = test_scenario.partitioning("bipartite")
        assert test_scenario.demand_predictor(part) is test_scenario.demand_predictor(part)
