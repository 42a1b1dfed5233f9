"""Ablation: ``window-lap`` dispatch-window length ``W`` (peak).

``W = 0`` degenerates to single-request windows, which the scheme hands
to mT-Share's greedy matcher, so the first column must serve exactly
what greedy mT-Share serves on the same fleet and roll nothing across
windows.  Wider windows batch more requests per assignment at the price
of up to ``W`` seconds of added matching delay.
"""

from conftest import run_figure
from repro.experiments.ablations import ablation_window_size
from repro.experiments.runner import RunKey, run


def test_ablation_window_size(benchmark, scale):
    res = run_figure(benchmark, ablation_window_size, scale)
    greedy = run(RunKey(spec=scale.peak, scheme="mt-share", num_taxis=scale.default_taxis))
    assert res.value("served", 0) == greedy.served
    assert res.value("rolled", 0) == 0
