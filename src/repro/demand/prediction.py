"""Hour-aware demand prediction over map partitions.

The paper mines *where* trips go (the transition model); its non-peak
premise — taxis seeking street hails where demand is — also needs
*when and where trips start*.  :class:`DemandPredictor` estimates the
historical pick-up intensity of every map partition for every hour of
the week-day/week-end cycle, so the rebalancer
(:mod:`repro.fleet.rebalance`) can move idle taxis toward the areas
that will be hot *soon* rather than hot on average.  This is the
simple statistical end of the demand-prediction literature the paper
cites ([40], [46], [52]); plugging in a learned model only requires the
same ``rate(partition, hour)`` interface.
"""

from __future__ import annotations

import numpy as np

from ..demand.dataset import TripDataset


class DemandPredictor:
    """Per-partition, per-hour pick-up rates from historical trips.

    Parameters
    ----------
    rates:
        ``(num_partitions, 24)`` array: mean pick-ups per hour-of-day
        in each partition, averaged over the observed days.
    """

    def __init__(self, rates: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=np.float64)
        if rates.ndim != 2 or rates.shape[1] != 24:
            raise ValueError("rates must be (num_partitions, 24)")
        if (rates < 0).any():
            raise ValueError("rates must be non-negative")
        self._rates = rates

    @classmethod
    def fit(
        cls,
        history: TripDataset,
        partition_of_vertex: np.ndarray,
        num_partitions: int,
    ) -> "DemandPredictor":
        """Estimate rates from a historical trip dataset.

        ``partition_of_vertex`` maps every road vertex to its partition
        (a :class:`~repro.partitioning.bipartite.MapPartitioning`'s
        ``labels``).  Each trip contributes one pick-up to its origin's
        partition at its release hour; counts are averaged over the
        number of days each hour-of-day was observed.
        """
        labels = np.asarray(partition_of_vertex, dtype=np.int64)
        counts = np.zeros((num_partitions, 24), dtype=np.float64)
        if len(history):
            hours_abs = (history.release_times // 3600.0).astype(np.int64)
            hod = hours_abs % 24
            parts = labels[history.origins]
            np.add.at(counts, (parts, hod), 1.0)
            # Days observed per hour-of-day.
            first = int(history.release_times.min() // 86400)
            last = int(history.release_times.max() // 86400)
            days = max(1, last - first + 1)
            counts /= days
        return cls(counts)

    # ------------------------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Read-only view of the ``(num_partitions, 24)`` rate table.

        This is the whole fitted state, so persisting it (the artifact
        store does) and reconstructing via ``DemandPredictor(rates)``
        is an exact round trip.
        """
        view = self._rates.view()
        view.flags.writeable = False
        return view

    def rate(self, partition: int, hour: int) -> float:
        """Expected pick-ups per hour in ``partition`` at hour-of-day."""
        return float(self._rates[partition, hour % 24])

    def rate_at_time(self, partition: int, t_seconds: float) -> float:
        """Rate at an absolute simulation time."""
        return self.rate(partition, int(t_seconds // 3600) % 24)

    def memory_bytes(self) -> int:
        """Footprint of the rate table."""
        return self._rates.nbytes
