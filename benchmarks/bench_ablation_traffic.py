"""Ablation: congestion sensitivity (the paper's traffic extension).

The paper assumes stable traffic but notes the system extends to
real-time conditions.  Slower traffic lengthens every trip, so the same
fleet serves fewer requests; the schemes' relative ordering should be
insensitive to the congestion level.
"""

from repro.reporting import ExperimentResult
from repro.experiments.runner import RunKey, run


def _congestion_sweep(scale):
    import dataclasses

    result = ExperimentResult(
        title="Ablation: congestion factor (peak, mT-Share vs pGreedyDP)",
        x_label="speed_factor",
        x_values=[1.0, 0.7],
        y_label="served",
    )
    for scheme in ("pgreedydp", "mt-share"):
        values = []
        for factor in (1.0, 0.7):
            spec = dataclasses.replace(scale.peak, congestion=factor)
            values.append(
                run(RunKey(spec=spec, scheme=scheme, num_taxis=scale.default_taxis)).served
            )
        result.add_series(scheme, values)
    return result


def test_ablation_traffic(benchmark, scale):
    res = benchmark.pedantic(_congestion_sweep, args=(scale,), rounds=1, iterations=1)
    res.print()
    for scheme in ("pgreedydp", "mt-share"):
        free, jammed = res.series[scheme]
        assert jammed < free  # congestion costs service
