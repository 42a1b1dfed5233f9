"""Benchmark-suite configuration.

Each benchmark regenerates one table/figure of the paper, or one
ablation, via the experiment harness and prints the same rows the paper
plots.  Every figure function has a wrapper; of the ablations,
``seed_robustness`` and ``rebalance_imbalance`` have none and run only
through ``repro experiment``.  Runs are macro-benchmarks (whole
simulation sweeps), so every benchmark executes a single round; the
experiment runner memoises simulations shared between figures
(Figs. 6-9 and Table III reuse one fleet sweep).

Set ``REPRO_BENCH_SCALE=full`` for the paper-shaped six-point sweeps;
the default ``quick`` scale keeps the whole suite to a few minutes.
``REPRO_WORKERS=N`` pre-executes each figure's simulations through the
parallel sweep executor (the figure function then recalls the memoised
results), and ``REPRO_ARTIFACT_DIR`` relocates or disables the
persistent preprocessing store the workers share.
"""

import pytest

from repro.experiments import bench_scale
from repro.experiments.figures import NON_RUN_FIGURES
from repro.experiments.runner import collect_keys, collect_observability, default_workers, run_many


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


def run_figure(benchmark, fn, scale):
    """Execute a figure function once under pytest-benchmark and print it."""
    workers = default_workers()
    if workers > 1 and getattr(fn, "__name__", "").split("_")[0] not in NON_RUN_FIGURES:
        # Fan the figure's simulations out first; the benchmarked call
        # then recalls them from the memo cache, so the recorded wall
        # time reflects the parallel sweep's residual work.
        run_many(collect_keys(fn, scale), workers=workers)
    result = benchmark.pedantic(fn, args=(scale,), rounds=1, iterations=1)
    # Per-stage dispatch timings + counters for the runs this figure
    # consumed (cumulative across the memoised run cache), persisted in
    # the pytest-benchmark JSON output.
    benchmark.extra_info["observability"] = collect_observability()
    result.print()
    return result
