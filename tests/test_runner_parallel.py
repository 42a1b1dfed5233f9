"""Parallel sweep executor, planning mode, and cache-isolation fixes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import figures, runner
from repro.experiments.claims import REGISTRY
from repro.experiments.figures import ALL_EXPERIMENTS, figure_run_keys
from repro.experiments.runner import (
    BenchScale,
    RunKey,
    clear_cache,
    collect_keys,
    collect_observability,
    default_workers,
    run,
    run_many,
)
from repro.sim import scenario as sc
from repro.sim.scenario import ScenarioSpec

MICRO_SPEC = ScenarioSpec(
    kind="peak",
    grid_rows=8,
    grid_cols=8,
    spacing_m=180.0,
    hourly_requests=120,
    history_days=2,
    num_partitions=9,
    offline_count=10,
    seed=3,
)

MICRO_SCALE = BenchScale(
    name="micro",
    peak=MICRO_SPEC,
    nonpeak=replace(MICRO_SPEC, kind="nonpeak"),
    taxi_counts=(20, 30),
    default_taxis=30,
)


def decision_fingerprint(m) -> tuple:
    """Everything a run decides, excluding wall-clock measurements.

    ``response_times_s`` and the stage timings measure *this process's*
    compute latency and are legitimately different across processes;
    every dispatch decision below must be bit-identical.
    """
    return (
        m.served,
        m.num_requests,
        m.served_online,
        m.served_offline,
        m.completed,
        tuple(m.waiting_times_s),
        tuple(m.detour_times_s),
        tuple(m.candidate_counts),
        m.shared_fares,
        m.driver_incomes,
        m.counters.get("match.insertions_evaluated"),
    )


# ----------------------------------------------------------------------
# cache isolation (satellite: clear_cache must clear both layers)
# ----------------------------------------------------------------------
def test_clear_cache_also_clears_scenario_cache():
    spec = replace(MICRO_SPEC, seed=201)
    s1 = sc.get_scenario(spec)
    key = RunKey(spec=spec, scheme="no-sharing", num_taxis=10)
    run(key)
    assert key in runner._CACHE

    clear_cache()
    assert key not in runner._CACHE
    assert sc.get_scenario(spec) is not s1, (
        "clear_cache() left a built scenario resident; the scenario "
        "layer must be cleared together with the run cache"
    )


# ----------------------------------------------------------------------
# planning mode
# ----------------------------------------------------------------------
def test_collect_keys_records_without_running():
    clear_cache()
    keys = collect_keys(
        lambda: [run(RunKey(spec=MICRO_SPEC, scheme="mt-share", num_taxis=n))
                 for n in (10, 20, 10)]
    )
    assert [k.num_taxis for k in keys] == [10, 20]  # deduplicated, ordered
    assert not runner._CACHE, "planning must not execute simulations"
    assert runner._PLANNING is None, "planning flag must be restored"


def test_figure_run_keys_skips_non_run_figures(monkeypatch):
    # fig5 reads the trace (its planning pass is free and yields no key);
    # fig21 times its own Simulator runs, so it is not planned at all.
    assert ALL_EXPERIMENTS["fig5"].plannable and not ALL_EXPERIMENTS["fig21"].plannable
    monkeypatch.setattr(figures, "bench_scale", lambda: MICRO_SCALE)
    keys = figure_run_keys(["fig5", "fig6", "fig7", "table3", "fig21"])
    assert keys, "run()-routed figures must contribute keys"
    # Figs. 6/7 and Table III share the peak fleet sweep: 4 schemes x 2
    # fleet sizes, deduplicated.
    assert len(keys) == 8
    assert all(k.spec == MICRO_SPEC for k in keys)


def test_figure_run_keys_default_covers_all_run_figures(monkeypatch):
    monkeypatch.setattr(figures, "bench_scale", lambda: MICRO_SCALE)
    keys = figure_run_keys()
    assert len(keys) > 20
    names = {name for name, entry in ALL_EXPERIMENTS.items() if entry.plannable}
    assert names, "registry should have run()-routed figures"


class _Simulated(Exception):
    """Raised by the patched ``Simulator.run`` a planning pass must not reach."""


def test_planning_simulates_nothing_iff_the_entry_is_plannable(monkeypatch):
    """"Plannable" is one fact on each registry entry, and it is true:
    a planning pass over a plannable entry reaches ``Simulator.run``
    zero times, and one over any other entry reaches it (the pass
    would simulate for real, which is why nothing plans it)."""
    from repro.sim.engine import Simulator

    calls = []

    def counted(self):
        calls.append(self)
        raise _Simulated

    monkeypatch.setattr(Simulator, "run", counted)
    # "quick" keeps fig21v on its small 40 x 40 first grid.
    scale = replace(MICRO_SCALE, name="quick")
    for name, entry in REGISTRY.items():
        calls.clear()
        try:
            collect_keys(entry.fn, scale)
        except _Simulated:
            pass
        assert (not calls) == entry.plannable, name


# ----------------------------------------------------------------------
# parallel execution
# ----------------------------------------------------------------------
def test_run_many_sequential_path_matches_run():
    clear_cache()
    keys = [RunKey(spec=MICRO_SPEC, scheme="no-sharing", num_taxis=n) for n in (10, 15)]
    results = run_many(keys, workers=1)
    assert [decision_fingerprint(m) for m in results] == [
        decision_fingerprint(run(k)) for k in keys
    ]


def test_run_many_parallel_is_deterministic_and_ordered():
    clear_cache()
    keys = [
        RunKey(spec=MICRO_SPEC, scheme="mt-share", num_taxis=n) for n in (10, 20, 30)
    ]
    sequential = [decision_fingerprint(run(k)) for k in keys]

    clear_cache()
    parallel = run_many(keys, workers=2)
    assert [decision_fingerprint(m) for m in parallel] == sequential

    # Results were memoised exactly as sequential runs would be.
    assert all(k in runner._CACHE for k in keys)
    obs = collect_observability()
    assert len(obs["workers"]) == len(keys)
    for snapshot in obs["workers"]:
        assert "artifact_store" in snapshot and "scenario_cache" in snapshot


def test_run_many_handles_duplicates_and_cached_keys():
    clear_cache()
    key = RunKey(spec=MICRO_SPEC, scheme="no-sharing", num_taxis=12)
    first = run(key)  # pre-cached
    results = run_many([key, key], workers=4)
    assert results[0] is first and results[1] is first


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv(runner.WORKERS_ENV, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(runner.WORKERS_ENV, "4")
    assert default_workers() == 4
    for bad in ("bogus", "0", "-3"):
        monkeypatch.setenv(runner.WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=f"positive integer, got '{bad}'"):
            default_workers()


# ----------------------------------------------------------------------
# cross-process determinism (satellite: in-process vs worker vs warm)
# ----------------------------------------------------------------------
_SUBPROCESS_RUN = """
import json
from repro.experiments.runner import RunKey, run
from repro.sim.scenario import ScenarioSpec
spec = ScenarioSpec(kind="peak", grid_rows=8, grid_cols=8, spacing_m=180.0,
                    hourly_requests=120, history_days=2, num_partitions=9,
                    offline_count=10, seed=3)
m = run(RunKey(spec=spec, scheme="mt-share", num_taxis=25))
print(json.dumps({
    "served": m.served,
    "num_requests": m.num_requests,
    "waiting": list(m.waiting_times_s),
    "detour": list(m.detour_times_s),
    "candidates": list(m.candidate_counts),
    "shared_fares": m.shared_fares,
    "insertions": m.counters.get("match.insertions_evaluated"),
}))
"""


def test_same_runkey_identical_across_processes_and_store_states():
    """One RunKey, three execution paths, one exact answer."""
    clear_cache()
    key = RunKey(spec=MICRO_SPEC, scheme="mt-share", num_taxis=25)
    in_process = decision_fingerprint(run(key))

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Spawned fresh process against the (now warm) artifact store.
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_RUN],
        env=env, capture_output=True, text=True, check=True,
    )
    worker = json.loads(out.stdout)
    assert worker["served"] == in_process[0]
    assert worker["num_requests"] == in_process[1]
    assert tuple(worker["waiting"]) == in_process[5]
    assert tuple(worker["detour"]) == in_process[6]
    assert tuple(worker["candidates"]) == in_process[7]
    assert worker["shared_fares"] == in_process[8]
    assert worker["insertions"] == in_process[10]

    # Warm-store rebuild in this process (scenario cache dropped).
    clear_cache()
    warm = decision_fingerprint(run(key))
    assert warm == in_process


def test_worker_and_sequential_metrics_bitwise_equal_arrays():
    clear_cache()
    key = RunKey(spec=MICRO_SPEC, scheme="t-share", num_taxis=15)
    a = run(key)
    clear_cache()
    (b,) = run_many([key], workers=1)
    assert np.array_equal(np.asarray(a.waiting_times_s), np.asarray(b.waiting_times_s))
    assert np.array_equal(np.asarray(a.detour_times_s), np.asarray(b.detour_times_s))
