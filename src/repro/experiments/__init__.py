"""Experiment harness regenerating every table and figure of the paper."""

from .ablations import ALL_ABLATIONS
from .analysis import fleet_profile, run_report, sharing_profile, waiting_by_trip_length
from .figures import ALL_EXPERIMENTS
from ..reporting import ExperimentResult
from .runner import BenchScale, RunKey, bench_scale, clear_cache, run, run_simple

__all__ = [
    "ALL_ABLATIONS",
    "ALL_EXPERIMENTS",
    "fleet_profile",
    "run_report",
    "sharing_profile",
    "waiting_by_trip_length",
    "BenchScale",
    "ExperimentResult",
    "RunKey",
    "bench_scale",
    "clear_cache",
    "run",
    "run_simple",
]
