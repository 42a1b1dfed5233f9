"""Experiment harness regenerating every table and figure of the paper."""

from .ablations import ALL_ABLATIONS
from .figures import ALL_EXPERIMENTS
from ..reporting import ExperimentResult
from .runner import BenchScale, RunKey, bench_scale, clear_cache, run

__all__ = [
    "ALL_ABLATIONS",
    "ALL_EXPERIMENTS",
    "BenchScale",
    "ExperimentResult",
    "RunKey",
    "bench_scale",
    "clear_cache",
    "run",
]
