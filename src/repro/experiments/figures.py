"""Per-figure/table experiment functions (Section V of the paper).

Each function regenerates one table or figure of the paper's
evaluation: it runs (memoised) simulations with the right workload and
parameters and returns an :class:`ExperimentResult` whose rows are the
series the paper plots.  :data:`ALL_EXPERIMENTS` registers them by the
short names ``repro experiment`` takes; the paper's claims about them,
checked by ``benchmarks/bench_claims.py`` and rendered into
EXPERIMENTS.md, are :data:`repro.experiments.claims.CLAIMS`.
"""

from __future__ import annotations

import time

from ..demand.dataset import TripDataset
from ..network.shortest_path import ShortestPathEngine
from ..sim.scenario import Scenario, ScenarioSpec, get_scenario
from ..reporting import ExperimentResult
from .runner import BenchScale, Experiment, RunKey, bench_scale, collect_keys, run

#: The scheme line-up of the peak-scenario figures.
PEAK_SCHEMES = ("no-sharing", "t-share", "pgreedydp", "mt-share")

#: The non-peak figures add mT-Share_pro.
NONPEAK_SCHEMES = ("no-sharing", "t-share", "pgreedydp", "mt-share", "mt-share-pro")


def _metric_sweep(
    spec: ScenarioSpec,
    schemes: tuple[str, ...],
    taxi_counts: tuple[int, ...],
    metric: str,
    title: str,
    y_label: str,
) -> ExperimentResult:
    """Shared engine of Figs. 6-13: metric per scheme over fleet sizes."""
    result = ExperimentResult(
        title=title,
        x_label="#taxis",
        x_values=list(taxi_counts),
        y_label=y_label,
    )
    for scheme in schemes:
        values = []
        for n in taxi_counts:
            metrics = run(RunKey(spec=spec, scheme=scheme, num_taxis=n))
            values.append(getattr(metrics, metric))
        result.add_series(scheme, values)
    return result


# ----------------------------------------------------------------------
# Fig. 5 — dataset statistics
# ----------------------------------------------------------------------
def _trips_where(trips: TripDataset, mask) -> TripDataset:
    return TripDataset(release_times=trips.release_times[mask], origins=trips.origins[mask],
                       destinations=trips.destinations[mask], taxi_ids=trips.taxi_ids[mask])


def fig5_dataset_stats(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 5: taxi utilisation and trip travel-time percentiles by hour
    of day; the ``all hours`` column holds the daily mean utilisation
    and the percentiles over every trip of the trace."""
    scale = scale or bench_scale()
    scenario = get_scenario(scale.peak)
    engine: ShortestPathEngine = scenario.engine
    history = scenario.history

    # Day 2 is a plain workday (day 1 hosts the excised peak window).
    workday = history.window(2 * 86400.0, 3 * 86400.0)
    weekend = history.window(6 * 86400.0, 7 * 86400.0)
    hours = list(range(6, 22, 2))
    result = ExperimentResult(
        title="Fig. 5: taxi utilisation ratio and trip travel time (min) by hour of day",
        x_label="hour",
        x_values=[*hours, "all hours"],
        y_label="value",
    )
    for name, day, base in (("workday", workday, 2), ("weekend", weekend, 6)):
        util = day.hourly_utilization(engine)
        daily = [util.get(base * 24 + h, 0.0) for h in range(24)]
        result.add_series(name, [round(daily[h], 3) for h in hours] + [round(sum(daily) / 24, 3)])
    hour_of_day = (history.release_times // 3600.0) % 24
    trips = [_trips_where(history, hour_of_day == h) for h in hours] + [history]
    pcts = [t.travel_time_distribution(engine, percentiles=(50.0, 90.0)) for t in trips]
    for p in (50.0, 90.0):
        result.add_series(f"trip p{p:.0f} min", [round(pct[p] / 60.0, 1) for pct in pcts])
    result.notes.append("Fig. 5(b): the paper's trip travel time is p50 = 15 min, "
                        "p90 = 30 min on the full-size network")
    return result


# ----------------------------------------------------------------------
# Figs. 6-9 + Table III — peak scenario
# ----------------------------------------------------------------------
def fig6_served_peak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 6: number of served requests, peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.peak, PEAK_SCHEMES, scale.taxi_counts,
        "served", "Fig. 6: served requests (peak)", "served",
    )


def fig7_response_peak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 7: response time (ms), peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.peak, PEAK_SCHEMES, scale.taxi_counts,
        "avg_response_ms", "Fig. 7: response time in ms (peak)", "ms",
    )


def table3_candidates_peak(scale: BenchScale | None = None) -> ExperimentResult:
    """Table III: average number of candidate taxis per request, peak."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.peak, ("no-sharing", "t-share", "pgreedydp", "mt-share"),
        scale.taxi_counts,
        "avg_candidates", "Table III: avg candidate taxis (peak)", "candidates",
    )


def fig8_detour_peak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 8: detour time (min), peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.peak, PEAK_SCHEMES, scale.taxi_counts,
        "avg_detour_min", "Fig. 8: detour time in minutes (peak)", "min",
    )


def fig9_waiting_peak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 9: waiting time (min), peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.peak, PEAK_SCHEMES, scale.taxi_counts,
        "avg_waiting_min", "Fig. 9: waiting time in minutes (peak)", "min",
    )


# ----------------------------------------------------------------------
# Figs. 10-13 — non-peak scenario (offline requests, mT-Share_pro)
# ----------------------------------------------------------------------
def fig10_served_nonpeak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 10: number of served requests, non-peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.nonpeak, NONPEAK_SCHEMES, scale.taxi_counts,
        "served", "Fig. 10: served requests (non-peak)", "served",
    )


def fig11_response_nonpeak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 11: response time (ms), non-peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.nonpeak, NONPEAK_SCHEMES, scale.taxi_counts,
        "avg_response_ms", "Fig. 11: response time in ms (non-peak)", "ms",
    )


def fig12_detour_nonpeak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 12: detour time (min), non-peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.nonpeak, NONPEAK_SCHEMES, scale.taxi_counts,
        "avg_detour_min", "Fig. 12: detour time in minutes (non-peak)", "min",
    )


def fig13_waiting_nonpeak(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 13: waiting time (min), non-peak scenario."""
    scale = scale or bench_scale()
    return _metric_sweep(
        scale.nonpeak, NONPEAK_SCHEMES, scale.taxi_counts,
        "avg_waiting_min", "Fig. 13: waiting time in minutes (non-peak)", "min",
    )


# ----------------------------------------------------------------------
# Table IV — memory overhead
# ----------------------------------------------------------------------
def table4_memory(scale: BenchScale | None = None) -> ExperimentResult:
    """Table IV: index sizes at the largest fleet, peak scenario."""
    scale = scale or bench_scale()
    n = max(scale.taxi_counts)
    result = ExperimentResult(
        title=f"Table IV: index memory at {n} taxis (peak)",
        x_label="metric",
        x_values=["index_kb"],
        y_label="scheme",
    )
    for scheme in ("t-share", "pgreedydp", "mt-share"):
        metrics = run(RunKey(spec=scale.peak, scheme=scheme, num_taxis=n))
        result.add_series(scheme, [round(metrics.index_memory_bytes / 1024.0, 1)])
    return result


# ----------------------------------------------------------------------
# Fig. 14 — partitions and capacity
# ----------------------------------------------------------------------
def fig14a_partitions(scale: BenchScale | None = None,
                      kappas: tuple[int, ...] | None = None) -> ExperimentResult:
    """Fig. 14(a): served requests versus the partition count ``kappa``."""
    scale = scale or bench_scale()
    if kappas is None:
        base = scale.peak.num_partitions
        kappas = (max(8, base // 3), base, base * 2)
    result = ExperimentResult(
        title="Fig. 14(a): impact of partition number kappa (peak)",
        x_label="kappa",
        x_values=list(kappas),
        y_label="served",
    )
    values = []
    candidates = []
    for kappa in kappas:
        metrics = run(
            RunKey(
                spec=scale.peak,
                scheme="mt-share",
                num_taxis=scale.default_taxis,
                config_overrides=(("num_partitions", kappa),),
            )
        )
        values.append(metrics.served)
        candidates.append(round(metrics.avg_candidates, 2))
    result.add_series("mt-share", values)
    result.add_series("avg candidates", candidates)
    return result


def fig14b_capacity(scale: BenchScale | None = None,
                    capacities: tuple[int, ...] = (2, 3, 4, 6)) -> ExperimentResult:
    """Fig. 14(b): served requests versus taxi capacity."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 14(b): impact of taxi capacity (peak)",
        x_label="capacity",
        x_values=list(capacities),
        y_label="served",
    )
    values = [
        run(
            RunKey(spec=scale.peak, scheme="mt-share",
                   num_taxis=scale.default_taxis, capacity=c)
        ).served
        for c in capacities
    ]
    result.add_series("mt-share", values)
    return result


# ----------------------------------------------------------------------
# Table V — map-partitioning strategies
# ----------------------------------------------------------------------
def table5_partitioning(scale: BenchScale | None = None) -> ExperimentResult:
    """Table V: grid versus bipartite partitioning in both scenarios."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Table V: map partitioning strategies (mT-Share)",
        x_label="metric",
        x_values=["served", "detour_min"],
        y_label="strategy/scenario",
    )
    for kind, spec, scheme in (
        ("peak", scale.peak, "mt-share"),
        ("nonpeak", scale.nonpeak, "mt-share-pro"),
    ):
        for method in ("grid", "bipartite"):
            metrics = run(
                RunKey(
                    spec=spec,
                    scheme=scheme,
                    num_taxis=scale.default_taxis,
                    partition_method=method,
                )
            )
            result.add_series(
                f"{method}/{kind}",
                [metrics.served, round(metrics.avg_detour_min, 2)],
            )
    return result


# ----------------------------------------------------------------------
# Fig. 15 — searching range gamma
# ----------------------------------------------------------------------
def fig15_gamma(scale: BenchScale | None = None,
                gammas: tuple[float, ...] | None = None) -> ExperimentResult:
    """Fig. 15: impact of gamma on detour and waiting time (peak).

    The sweep pins every scheme — including mT-Share — to the static
    searching range, as the paper's sweep does.
    """
    scale = scale or bench_scale()
    scenario = get_scenario(scale.peak)
    base_gamma = scenario.default_config().search_range_m
    if gammas is None:
        gammas = tuple(round(base_gamma * f) for f in (0.6, 1.0, 1.4))
    result = ExperimentResult(
        title="Fig. 15: impact of searching range gamma (peak)",
        x_label="gamma_m",
        x_values=list(gammas),
        y_label="minutes",
    )
    for scheme in PEAK_SCHEMES:
        detours = []
        waits = []
        for gamma in gammas:
            metrics = run(
                RunKey(
                    spec=scale.peak,
                    scheme=scheme,
                    num_taxis=scale.default_taxis,
                    config_overrides=(
                        ("mtshare_adaptive_gamma", False),
                        ("search_range_m", float(gamma)),
                    ),
                )
            )
            detours.append(round(metrics.avg_detour_min, 2))
            waits.append(round(metrics.avg_waiting_min, 2))
        result.add_series(f"{scheme} detour", detours)
        result.add_series(f"{scheme} waiting", waits)
    return result


# ----------------------------------------------------------------------
# Fig. 16 — routing schemes
# ----------------------------------------------------------------------
def fig16_routing_modes(scale: BenchScale | None = None) -> ExperimentResult:
    """Fig. 16: online/offline served under basic vs probabilistic routing."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 16: served composition, basic vs probabilistic (non-peak)",
        x_label="metric",
        x_values=["online", "offline", "total"],
        y_label="scheme/routing",
    )
    for scheme in ("t-share", "pgreedydp", "mt-share"):
        for probabilistic in (False, True):
            if scheme == "mt-share":
                key = RunKey(
                    spec=scale.nonpeak,
                    scheme="mt-share-pro" if probabilistic else "mt-share",
                    num_taxis=scale.default_taxis,
                )
            else:
                key = RunKey(
                    spec=scale.nonpeak,
                    scheme=scheme,
                    num_taxis=scale.default_taxis,
                    probabilistic=probabilistic,
                )
            metrics = run(key)
            label = f"{scheme}/{'prob' if probabilistic else 'basic'}"
            result.add_series(
                label,
                [metrics.served_online, metrics.served_offline, metrics.served],
            )
    return result


# ----------------------------------------------------------------------
# Figs. 17-19 — flexible factor rho
# ----------------------------------------------------------------------
RHO_VALUES = (1.1, 1.2, 1.3, 1.4, 1.5)


def fig17_rho_waiting(scale: BenchScale | None = None,
                      rhos: tuple[float, ...] = RHO_VALUES) -> ExperimentResult:
    """Fig. 17: waiting time versus rho (peak, sharing schemes)."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 17: impact of rho on waiting time (peak)",
        x_label="rho",
        x_values=list(rhos),
        y_label="min",
    )
    for scheme in ("t-share", "pgreedydp", "mt-share"):
        result.add_series(
            scheme,
            [
                round(
                    run(
                        RunKey(spec=scale.peak, scheme=scheme,
                               num_taxis=scale.default_taxis, rho=rho)
                    ).avg_waiting_min,
                    2,
                )
                for rho in rhos
            ],
        )
    return result


def fig18_rho_detour_served(scale: BenchScale | None = None,
                            rhos: tuple[float, ...] = RHO_VALUES) -> ExperimentResult:
    """Fig. 18: mT-Share's detour time and served requests versus rho."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 18: impact of rho on detour and served (mT-Share, peak)",
        x_label="rho",
        x_values=list(rhos),
        y_label="value",
    )
    served = []
    detour = []
    for rho in rhos:
        metrics = run(
            RunKey(spec=scale.peak, scheme="mt-share",
                   num_taxis=scale.default_taxis, rho=rho)
        )
        served.append(metrics.served)
        detour.append(round(metrics.avg_detour_min, 2))
    result.add_series("served", served)
    result.add_series("detour_min", detour)
    return result


def fig19_rho_payment(scale: BenchScale | None = None,
                      rhos: tuple[float, ...] = RHO_VALUES) -> ExperimentResult:
    """Fig. 19: passenger fare saving and driver income gain versus rho."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 19: payment-model benefits vs rho (mT-Share, peak)",
        x_label="rho",
        x_values=list(rhos),
        y_label="percent",
    )
    savings = []
    gains = []
    for rho in rhos:
        metrics = run(
            RunKey(spec=scale.peak, scheme="mt-share",
                   num_taxis=scale.default_taxis, rho=rho)
        )
        savings.append(round(metrics.fare_saving_pct, 2))
        gains.append(round(metrics.driver_gain_pct, 2))
    result.add_series("passenger saving %", savings)
    result.add_series("driver gain %", gains)
    return result


# ----------------------------------------------------------------------
# Fig. 20 — direction threshold lambda
# ----------------------------------------------------------------------
def fig20_lambda(scale: BenchScale | None = None,
                 thetas_deg: tuple[float, ...] = (30.0, 45.0, 60.0, 75.0)) -> ExperimentResult:
    """Fig. 20: served requests and response time versus theta (lambda)."""
    import math

    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Fig. 20: impact of direction threshold theta (mT-Share, peak)",
        x_label="theta_deg",
        x_values=list(thetas_deg),
        y_label="value",
    )
    served = []
    response = []
    for theta in thetas_deg:
        lam = round(math.cos(math.radians(theta)), 4)
        metrics = run(
            RunKey(
                spec=scale.peak,
                scheme="mt-share",
                num_taxis=scale.default_taxis,
                config_overrides=(("lam", lam),),
            )
        )
        served.append(metrics.served)
        response.append(round(metrics.avg_response_ms, 3))
    result.add_series("served", served)
    result.add_series("response_ms", response)
    return result


# ----------------------------------------------------------------------
# Fig. 21 — scalability with data volume
# ----------------------------------------------------------------------
def fig21_scalability(scale: BenchScale | None = None,
                      hour_counts: tuple[int, ...] | None = None) -> ExperimentResult:
    """Fig. 21: execution and response time versus hours of trace data.

    Runs mT-Share over growing multi-hour workday workloads (and
    mT-Share_pro over weekend workloads when the scale is ``full``),
    reporting total execution wall time and the per-request response
    time, which the paper shows growing linearly and staying flat,
    respectively.
    """
    scale = scale or bench_scale()
    if hour_counts is None:
        hour_counts = (1, 2, 4) if scale.name == "quick" else (1, 2, 4, 8, 13)
    scenario = get_scenario(scale.peak)
    result = ExperimentResult(
        title="Fig. 21: scalability with used data amounts (mT-Share, workday)",
        x_label="hours",
        x_values=list(hour_counts),
        y_label="value",
    )
    exec_times = []
    responses = []
    for hours in hour_counts:
        window = scenario.demand.generate_window(1, 7, hours, weekend=False)
        requests = window.to_requests(scenario.engine, rho=1.3,
                                      time_origin=7 * 3600.0 + 86400.0)
        scheme = scenario.make_scheme("mt-share")
        fleet = scenario.make_fleet(scale.default_taxis)
        from ..sim.engine import Simulator

        start = time.perf_counter()  # repro-lint: disable=REP003 reason=Fig. 21 reports measured execution time
        metrics = Simulator(scheme, fleet, requests).run()
        exec_times.append(round(time.perf_counter() - start, 2))  # repro-lint: disable=REP003 reason=Fig. 21 reports measured execution time
        responses.append(round(metrics.avg_response_ms, 3))
    result.add_series("execution_s", exec_times)
    result.add_series("response_ms", responses)
    return result


# ----------------------------------------------------------------------
# Fig. 21 companion — scalability with network size
# ----------------------------------------------------------------------
def fig21v_vertex_scalability(
    scale: BenchScale | None = None,
    grid_sides: tuple[int, ...] | None = None,
) -> ExperimentResult:
    """Fig. 21 companion: execution and response time versus |V|.

    The paper's Fig. 21 grows the trace volume on a fixed road network;
    this companion grows the *network* at a fixed workload — the axis
    the on-demand backends unlock (a full APSP table needs O(V^2)
    memory and dies around 20k vertices; ``mode="auto"`` flips to the
    ``lazy`` per-source memo above ``FULL_APSP_LIMIT``).  mT-Share runs
    with the geometric partitioner (k-means over coordinates stays
    tractable at hundreds of thousands of vertices, unlike the
    bipartite fixed point) over one evaluation hour per size, on the
    scale's scenario seed.  Each size's scenario is built for its one
    run and not memoised: the largest holds hundreds of megabytes.
    """
    scale = scale or bench_scale()
    if grid_sides is None:
        # quick: one full-mode grid and one past the auto lazy cutover;
        # full: ~10k, ~50k and ~200k vertices.
        grid_sides = (40, 90) if scale.name == "quick" else (100, 224, 448)
    from ..sim.engine import Simulator

    vertices = []
    exec_times = []
    responses = []
    modes = []
    for side in grid_sides:
        spec = ScenarioSpec(
            kind="peak",
            grid_rows=side,
            grid_cols=side,
            spacing_m=180.0,
            hourly_requests=min(scale.peak.hourly_requests, 400),
            history_days=2,
            offline_count=40,
            num_partitions=16,
            seed=scale.peak.seed,
        )
        scenario = Scenario(spec)
        vertices.append(scenario.network.num_vertices)
        modes.append(scenario.engine.mode)
        requests = scenario.requests()
        scheme = scenario.make_scheme("mt-share", partition_method="geo")
        fleet = scenario.make_fleet(min(scale.default_taxis, 120))
        start = time.perf_counter()  # repro-lint: disable=REP003 reason=Fig. 21 reports measured execution time
        metrics = Simulator(scheme, fleet, requests).run()
        exec_times.append(round(time.perf_counter() - start, 2))  # repro-lint: disable=REP003 reason=Fig. 21 reports measured execution time
        responses.append(round(metrics.avg_response_ms, 3))
    result = ExperimentResult(
        title="Fig. 21 companion: scalability with network size (mT-Share, geo)",
        x_label="vertices",
        x_values=vertices,
        y_label="value",
    )
    result.add_series("execution_s", exec_times)
    result.add_series("response_ms", responses)
    result.add_series("sp_mode", modes)
    return result


# ----------------------------------------------------------------------
# Fig. 22w (companion) — batch-window assignment at peak workload
# ----------------------------------------------------------------------
def fig22w_window_peak(scale: BenchScale | None = None,
                       taxi_counts: tuple[int, ...] | None = None) -> ExperimentResult:
    """Companion figure: ``window-lap`` versus greedy mT-Share at peak.

    Sweeps the peak fleet sizes and reports, per scheme, the served
    count and the amortised per-request dispatch cost (the
    ``sim.dispatch`` stage total over the online population) — the
    trade the whole-window LAP makes: a bounded matching delay buys
    batched matrix fill and one globally optimal assignment per window.
    """
    scale = scale or bench_scale()
    taxi_counts = taxi_counts or scale.taxi_counts
    result = ExperimentResult(
        title="Fig. 22w: batch-window LAP vs greedy mT-Share (peak)",
        x_label="#taxis",
        x_values=list(taxi_counts),
        y_label="value",
    )
    for scheme in ("mt-share", "window-lap"):
        served = []
        dispatch_ms = []
        waiting = []
        for n in taxi_counts:
            metrics = run(RunKey(spec=scale.peak, scheme=scheme, num_taxis=n))
            served.append(metrics.served)
            stage = metrics.stages.get("sim.dispatch", {})
            per_request = stage.get("total_s", 0.0) / max(metrics.num_online, 1)
            dispatch_ms.append(round(1000.0 * per_request, 3))
            waiting.append(round(metrics.avg_waiting_min, 2))
        result.add_series(f"{scheme} served", served)
        result.add_series(f"{scheme} dispatch_ms", dispatch_ms)
        result.add_series(f"{scheme} waiting_min", waiting)
    return result


#: Every figure and table by its ``repro experiment`` name.
ALL_EXPERIMENTS = {
    "fig5": Experiment(fig5_dataset_stats, plannable=True),
    "fig6": Experiment(fig6_served_peak, plannable=True),
    "fig7": Experiment(fig7_response_peak, plannable=True),
    "table3": Experiment(table3_candidates_peak, plannable=True),
    "fig8": Experiment(fig8_detour_peak, plannable=True),
    "fig9": Experiment(fig9_waiting_peak, plannable=True),
    "fig10": Experiment(fig10_served_nonpeak, plannable=True),
    "fig11": Experiment(fig11_response_nonpeak, plannable=True),
    "fig12": Experiment(fig12_detour_nonpeak, plannable=True),
    "fig13": Experiment(fig13_waiting_nonpeak, plannable=True),
    "table4": Experiment(table4_memory, plannable=True),
    "fig14a": Experiment(fig14a_partitions, plannable=True),
    "fig14b": Experiment(fig14b_capacity, plannable=True),
    "table5": Experiment(table5_partitioning, plannable=True),
    "fig15": Experiment(fig15_gamma, plannable=True),
    "fig16": Experiment(fig16_routing_modes, plannable=True),
    "fig17": Experiment(fig17_rho_waiting, plannable=True),
    "fig18": Experiment(fig18_rho_detour_served, plannable=True),
    "fig19": Experiment(fig19_rho_payment, plannable=True),
    "fig20": Experiment(fig20_lambda, plannable=True),
    "fig21": Experiment(fig21_scalability, plannable=False),
    "fig21v": Experiment(fig21v_vertex_scalability, plannable=False),
    "fig22w": Experiment(fig22w_window_peak, plannable=True),
}


def figure_run_keys(names: tuple[str, ...] | list[str] | None = None) -> list[RunKey]:
    """The unique RunKeys the named figures (default: all) would simulate
    at :func:`~repro.experiments.runner.bench_scale`.

    A planning pass (see :func:`repro.experiments.runner.collect_keys`)
    over each plannable figure; the others are skipped.  Feed the result
    to ``run_many`` to execute a whole multi-figure sweep in parallel,
    then call the experiment functions normally — every run is recalled
    from the memo cache.
    """
    keys: list[RunKey] = []
    for name in names or ALL_EXPERIMENTS:
        entry = ALL_EXPERIMENTS[name]
        if entry.plannable:
            keys.extend(collect_keys(entry.fn))
    return list(dict.fromkeys(keys))
