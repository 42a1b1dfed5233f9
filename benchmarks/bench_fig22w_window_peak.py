"""Fig. 22w (companion): ``window-lap`` versus greedy mT-Share at peak.

Sweeps the peak fleet sizes and reports served requests, amortised
per-request dispatch cost and waiting time for both schemes: a bounded
matching delay buys one globally optimal assignment per window.
"""

from conftest import run_figure
from repro.experiments.figures import fig22w_window_peak


def test_fig22w_window_peak(benchmark, scale):
    res = run_figure(benchmark, fig22w_window_peak, scale)
    for x in res.x_values:
        assert res.value("window-lap served", x) > 0
