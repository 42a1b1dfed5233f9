"""Ablation experiments for mT-Share's design choices.

These go beyond the paper's own sweeps: they isolate individual design
decisions DESIGN.md calls out — the searching-range policy (static
``gamma`` versus the Eq. 2 adaptive radius), the probability-vs-detour
steering strength the paper defers to future work, the idle
demand-seeking cruising of the non-peak mode, offline redispatch,
congestion, the dispatch window and proactive rebalancing — so a
downstream user can see what each buys.  :data:`ALL_ABLATIONS`
registers them by the short names ``repro experiment`` takes.
"""

from __future__ import annotations

from dataclasses import replace

from ..reporting import ExperimentResult
from .runner import BenchScale, Experiment, RunKey, bench_scale, run


def ablation_adaptive_gamma(scale: BenchScale | None = None) -> ExperimentResult:
    """mT-Share with Eq. 2's adaptive searching range versus the static one."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: mT-Share searching-range policy (peak)",
        x_label="metric",
        x_values=["served", "response_ms", "candidates"],
        y_label="policy",
    )
    for label, adaptive in (("adaptive (Eq. 2)", True), ("static gamma", False)):
        metrics = run(
            RunKey(
                spec=scale.peak,
                scheme="mt-share",
                num_taxis=scale.default_taxis,
                config_overrides=(("mtshare_adaptive_gamma", adaptive),),
            )
        )
        result.add_series(
            label,
            [metrics.served, round(metrics.avg_response_ms, 3),
             round(metrics.avg_candidates, 2)],
        )
    return result


def ablation_steering(scale: BenchScale | None = None,
                      strengths_m: tuple[float, ...] = (0.0, 120.0, 400.0)) -> ExperimentResult:
    """The probability-vs-detour trade-off of probabilistic routing.

    ``prob_steering_m = 0`` reduces fine-grained routing to shortest
    paths (corridor choice still applies); larger values buy more
    offline encounters at the cost of extra detour, the exact trade-off
    the paper leaves to future work.
    """
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: probabilistic-routing steering strength (non-peak)",
        x_label="steering_m",
        x_values=list(strengths_m),
        y_label="value",
    )
    offline = []
    total = []
    detour = []
    for strength in strengths_m:
        metrics = run(
            RunKey(
                spec=scale.nonpeak,
                scheme="mt-share-pro",
                num_taxis=scale.default_taxis,
                config_overrides=(("prob_steering_m", float(strength)),),
            )
        )
        offline.append(metrics.served_offline)
        total.append(metrics.served)
        detour.append(round(metrics.avg_detour_min, 2))
    result.add_series("served offline", offline)
    result.add_series("served total", total)
    result.add_series("detour_min", detour)
    return result


def ablation_cruising(scale: BenchScale | None = None) -> ExperimentResult:
    """Idle demand-seeking cruising on versus off (mT-Share_pro, non-peak)."""
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: idle cruising (mT-Share_pro, non-peak)",
        x_label="metric",
        x_values=["served_online", "served_offline", "served", "waiting_min"],
        y_label="policy",
    )
    for label, enabled in (("cruising on", True), ("cruising off", False)):
        metrics = run(
            RunKey(
                spec=scale.nonpeak,
                scheme="mt-share-pro",
                num_taxis=scale.default_taxis,
                config_overrides=(("enable_cruising", enabled),),
            )
        )
        result.add_series(
            label,
            [metrics.served_online, metrics.served_offline, metrics.served,
             round(metrics.avg_waiting_min, 2)],
        )
    return result


def ablation_redispatch(scale: BenchScale | None = None) -> ExperimentResult:
    """Offline-encounter redispatch on versus off.

    The paper's offline pipeline lets the server dispatch *another* taxi
    when the encountering one cannot carry the hailer; this isolates how
    much of the offline service that second chance provides.
    """
    from ..core.payment import PaymentModel
    from ..sim.engine import Simulator
    from ..sim.scenario import get_scenario

    scale = scale or bench_scale()
    scenario = get_scenario(scale.nonpeak)
    requests = scenario.requests()
    result = ExperimentResult(
        title="Ablation: offline-encounter redispatch (mT-Share_pro, non-peak)",
        x_label="metric",
        x_values=["served_offline", "served"],
        y_label="policy",
    )
    for label, redispatch in (("redispatch on", True), ("redispatch off", False)):
        metrics = Simulator(
            scenario.make_scheme("mt-share-pro"),
            scenario.make_fleet(scale.default_taxis),
            requests,
            payment=PaymentModel(),
            redispatch_encounters=redispatch,
        ).run()
        result.add_series(label, [metrics.served_offline, metrics.served])
    return result


def ablation_traffic(scale: BenchScale | None = None) -> ExperimentResult:
    """Congestion sensitivity (the paper's traffic extension).

    The paper assumes stable traffic but notes the system extends to
    real-time conditions.  Slower traffic lengthens every trip, so the
    same fleet serves fewer requests; the schemes' relative ordering
    should be insensitive to the congestion level.
    """
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: congestion factor (peak, mT-Share vs pGreedyDP)",
        x_label="speed_factor",
        x_values=[1.0, 0.7],
        y_label="served",
    )
    for scheme in ("pgreedydp", "mt-share"):
        values = []
        for factor in (1.0, 0.7):
            spec = replace(scale.peak, congestion=factor)
            values.append(
                run(RunKey(spec=spec, scheme=scheme, num_taxis=scale.default_taxis)).served
            )
        result.add_series(scheme, values)
    return result


def ablation_window_size(scale: BenchScale | None = None,
                         windows: tuple[float, ...] = (0.0, 10.0, 30.0, 60.0, 120.0)
                         ) -> ExperimentResult:
    """``window-lap`` service quality and dispatch cost versus ``W``.

    ``W = 0`` degenerates to single-request windows and reproduces the
    greedy mT-Share decisions exactly; the ``greedy`` column is greedy
    mT-Share on the same fleet, the reference.  The wider the window,
    the more requests each linear assignment batches — amortising matrix
    fill across the window — at the price of up to ``W`` seconds of
    added matching delay per request.
    """
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: window-lap dispatch-window length (peak)",
        x_label="window_s",
        x_values=[*(int(w) for w in windows), "greedy"],
        y_label="value",
    )
    served = []
    waiting = []
    dispatch_ms = []
    rolled = []
    keys = [
        RunKey(
            spec=scale.peak,
            scheme="window-lap",
            num_taxis=scale.default_taxis,
            config_overrides=(("dispatch_window_s", float(w)),),
        )
        for w in windows
    ]
    for key in [*keys, RunKey(spec=scale.peak, scheme="mt-share", num_taxis=scale.default_taxis)]:
        metrics = run(key)
        served.append(metrics.served)
        waiting.append(round(metrics.avg_waiting_min, 2))
        stage = metrics.stages.get("sim.dispatch", {})
        per_request = stage.get("total_s", 0.0) / max(metrics.num_online, 1)
        dispatch_ms.append(round(1000.0 * per_request, 3))
        rolled.append(metrics.counters.get("window.rolled", 0))
    result.add_series("served", served)
    result.add_series("waiting_min", waiting)
    result.add_series("dispatch_ms_per_request", dispatch_ms)
    result.add_series("rolled", rolled)
    return result


def ablation_rebalance_imbalance(scale: BenchScale | None = None) -> ExperimentResult:
    """Proactive idle-taxi rebalancing under the commute surge (peak).

    The peak scenario's evaluation window *is* the morning one-way
    surge (workday hour 8): demand concentrates in a few origin zones
    while drop-offs strand the fleet elsewhere, so a purely reactive
    dispatcher starves the surge cells — ROADMAP item 1.  The fleet is
    deliberately tight (half the default) to make the supply/demand
    imbalance bite; the rebalancer then steers surplus idle taxis
    toward predicted-deficit partitions ahead of the surge.  Compare
    served rate and response/waiting with the identical run without
    repositioning.
    """
    scale = scale or bench_scale()
    result = ExperimentResult(
        title="Ablation: proactive idle-taxi rebalancing (mT-Share, commute surge)",
        x_label="metric",
        x_values=["served", "served_rate", "response_ms", "waiting_min", "moves"],
        y_label="policy",
    )
    num_taxis = max(scale.default_taxis // 2, 10)
    for label, spec_str in (("rebalance on", "on"), ("rebalance off", None)):
        metrics = run(
            RunKey(
                spec=scale.peak,
                scheme="mt-share",
                num_taxis=num_taxis,
                rebalance=spec_str,
            )
        )
        served_rate = metrics.served / max(metrics.num_requests, 1)
        result.add_series(
            label,
            [metrics.served, round(served_rate, 4),
             round(metrics.avg_response_ms, 3),
             round(metrics.avg_waiting_min, 2),
             metrics.counters.get("rebalance.moves", 0)],
        )
    return result


#: Every ablation by its ``repro experiment`` name.
ALL_ABLATIONS = {
    "adaptive_gamma": Experiment(ablation_adaptive_gamma, plannable=True),
    "steering": Experiment(ablation_steering, plannable=True),
    "cruising": Experiment(ablation_cruising, plannable=True),
    "redispatch": Experiment(ablation_redispatch, plannable=False),
    "traffic": Experiment(ablation_traffic, plannable=True),
    "window_size": Experiment(ablation_window_size, plannable=True),
    "rebalance_imbalance": Experiment(ablation_rebalance_imbalance, plannable=True),
}
