"""Metric tables: the eight end-to-end metrics and the per-layer metrics.

``BENCHMARK.json`` is the contract the driver reads (names, units,
directions, bounds); the tables here add what it has no key for — the
layer each metric belongs to and the end-to-end metric it should move —
and the code that derives each value from one traced child.
``test_harness.py`` asserts the two agree name for name.
"""

from __future__ import annotations

#: End-to-end metrics: name -> (unit, better, host or sim time).
END_TO_END = {
    "setup_s": ("s", "lower", "host"),
    "run_s": ("s", "lower", "host"),
    "response_us_p50": ("us", "lower", "host"),
    "response_us_p95": ("us", "lower", "host"),
    "peak_rss_mb": ("MB", "lower", "host"),
    "served_rate": ("ratio", "higher", "sim"),
    "delay_min": ("min", "lower", "sim"),
    "waiting_min": ("min", "lower", "sim"),
}

#: The sim-time metrics: exact functions of (commit, workload, seed).
SIM_METRICS = tuple(name for name, row in END_TO_END.items() if row[2] == "sim")

#: Per-layer metrics: (name, unit, better, layer, end-to-end metric it should move).
LAYER_TABLE = [
    ("py.import_s", "s", "lower", "interpreter", "setup_s"),
    ("scenario.get_s", "s", "lower", "sim.scenario", "setup_s"),
    ("scenario.make_scheme_s", "s", "lower", "sim.scenario", "setup_s"),
    ("scenario.requests_s", "s", "lower", "sim.scenario", "setup_s"),
    ("scenario.make_fleet_s", "s", "lower", "sim.scenario", "setup_s"),
    ("scenario.fault_plan_s", "s", "lower", "sim.scenario", "setup_s"),
    ("scenario.rebalance_policy_s", "s", "lower", "sim.scenario", "setup_s"),
    ("demand.generate_days_s", "s", "lower", "demand", "setup_s (cold-ch)"),
    ("demand.rows", "count", "lower", "demand", "setup_s (cold-ch)"),
    ("demand.us_per_row", "us", "lower", "demand", "setup_s (cold-ch)"),
    ("demand.replay_rng_s", "s", "lower", "demand", "setup_s (warm)"),
    ("demand.predictor_fit_s", "s", "lower", "demand", "setup_s"),
    ("network.grid_city_s", "s", "lower", "network (build)", "setup_s"),
    ("network.sp_init_s", "s", "lower", "network (build)", "setup_s (cold-ch), peak_rss_mb"),
    ("network.ch_shortcuts", "count", "lower", "network (build)", "setup_s (cold-ch), peak_rss_mb"),
    ("network.landmarks_s", "s", "lower", "network (build)", "setup_s (cold-ch)"),
    ("partitioning.bipartite_s", "s", "lower", "partitioning", "setup_s (cold-ch)"),
    ("artifacts.load_s", "s", "lower", "artifacts", "setup_s (warm)"),
    ("artifacts.load_calls", "count", "lower", "artifacts", "setup_s (warm)"),
    ("artifacts.mmap_loads", "count", "higher", "artifacts", "peak_rss_mb"),
    ("artifacts.save_s", "s", "lower", "artifacts", "setup_s (cold-ch)"),
    ("artifacts.save_calls", "count", "lower", "artifacts", "setup_s (cold-ch)"),
    ("artifacts.builds", "count", "lower", "artifacts", "setup_s"),
    ("network.cost_matrix_s", "s", "lower", "network (query)", "run_s (peak-window, cold-ch)"),
    ("network.cost_matrix_calls", "count", "lower", "network (query)", "run_s"),
    ("network.cost_many_s", "s", "lower", "network (query)", "run_s, response_us_* (cold-ch)"),
    ("network.cost_many_calls", "count", "lower", "network (query)", "run_s"),
    ("network.path_s", "s", "lower", "network (query)", "run_s, response_us_* (cold-ch)"),
    ("network.path_calls", "count", "lower", "network (query)", "run_s"),
    ("network.sp_cache_hit_ratio", "ratio", "higher", "network (query)", "run_s (cold-ch)"),
    ("network.ch_settled", "count", "lower", "network (query)", "run_s (cold-ch)"),
    ("kernel.events", "count", "lower", "sim.kernel", "run_s"),
    ("kernel.run_self_s", "s", "lower", "sim.kernel", "run_s"),
    ("sim.release_s", "s", "lower", "sim.engine", "run_s"),
    ("sim.release_calls", "count", "lower", "sim.engine", "run_s"),
    ("sim.window_tick_s", "s", "lower", "sim.engine", "run_s (peak-window)"),
    ("sim.window_tick_calls", "count", "lower", "sim.engine", "run_s (peak-window)"),
    ("sim.rebalance_tick_s", "s", "lower", "sim.engine", "run_s (peak-chaos)"),
    ("sim.rebalance_tick_calls", "count", "lower", "sim.engine", "run_s (peak-chaos)"),
    ("sim.drain_tick_s", "s", "lower", "sim.engine", "run_s"),
    ("sim.drain_tick_calls", "count", "lower", "sim.engine", "run_s"),
    ("sim.boundary_self_s", "s", "lower", "sim.engine", "run_s, never response_us_*"),
    ("sim.run_self_s", "s", "lower", "sim.engine", "run_s"),
    ("sim.unattributed_frac", "ratio", "lower", "sim.engine", "-"),
    ("sim.detour_min", "min", "lower", "sim.engine", "delay_min"),
    ("fleet.advance_calls", "count", "lower", "fleet", "run_s via sim.boundary_self_s"),
    ("fleet.advance_moved", "count", "lower", "fleet", "run_s via sim.boundary_self_s"),
    ("fleet.advance_useful_ratio", "ratio", "higher", "fleet", "run_s via sim.boundary_self_s"),
    ("fleet.stops_fired", "count", "lower", "fleet", "run_s"),
    ("fleet.advance_noop_ns", "ns", "lower", "fleet", "run_s via sim.boundary_self_s"),
    ("fleet.rebalance_plan_s", "s", "lower", "fleet", "run_s (peak-chaos)"),
    ("fleet.rebalance_plan_calls", "count", "lower", "fleet", "run_s (peak-chaos)"),
    ("fleet.rebalance_moves", "count", "lower", "fleet", "run_s, served_rate (peak-chaos)"),
    ("core.dispatch_s", "s", "lower", "core.matching", "run_s, response_us_*"),
    ("core.dispatch_calls", "count", "lower", "core.matching", "run_s"),
    ("core.candidates_s", "s", "lower", "core.matching", "run_s, response_us_*"),
    ("core.candidates_calls", "count", "lower", "core.matching", "run_s"),
    ("core.candidates_found", "count", "lower", "core.matching", "run_s, response_us_*"),
    ("core.match_self_s", "s", "lower", "core.matching", "run_s, response_us_*"),
    ("core.insertions_evaluated", "count", "lower", "core.matching", "run_s, response_us_*"),
    ("core.install_s", "s", "lower", "core.mtshare", "run_s"),
    ("core.on_taxi_advanced_s", "s", "lower", "core.mtshare", "run_s"),
    ("core.on_taxi_advanced_calls", "count", "lower", "core.mtshare", "run_s"),
    ("core.try_offline_s", "s", "lower", "core.mtshare", "run_s (nonpeak-pro)"),
    ("core.try_offline_calls", "count", "lower", "core.mtshare", "run_s (nonpeak-pro)"),
    ("core.route_basic_s", "s", "lower", "core.routing", "run_s, response_us_p95 (cold-ch)"),
    ("core.route_basic_calls", "count", "lower", "core.routing", "run_s"),
    ("core.route_prob_s", "s", "lower", "core.routing", "run_s, response_us_p95 (nonpeak-pro)"),
    ("core.route_prob_calls", "count", "lower", "core.routing", "run_s (nonpeak-pro)"),
    ("core.cruise_route_s", "s", "lower", "core.routing", "run_s (nonpeak-pro)"),
    ("core.cruise_route_calls", "count", "lower", "core.routing", "run_s (nonpeak-pro)"),
    ("core.routes_planned", "count", "lower", "core.routing", "run_s"),
    ("core.planned_per_candidate", "ratio", "lower", "core.routing", "run_s"),
    ("core.window_match_s", "s", "lower", "core.window", "run_s, response_us_* (peak-window)"),
    ("core.window_match_calls", "count", "lower", "core.window", "run_s (peak-window)"),
    ("core.window_matrix_s", "s", "lower", "core.window", "run_s (peak-window)"),
    ("core.window_lap_s", "s", "lower", "core.window", "run_s (peak-window)"),
    ("core.window_cells", "count", "lower", "core.window", "run_s (peak-window)"),
    ("core.window_feasible_ratio", "ratio", "higher", "core.window", "run_s (peak-window)"),
    ("core.window_rolled", "count", "lower", "core.window", "served_rate (peak-window)"),
    ("core.payment_settle_s", "s", "lower", "core.payment", "run_s"),
    ("core.payment_settle_calls", "count", "lower", "core.payment", "run_s"),
    ("faults.events", "count", "lower", "faults", "run_s, served_rate (peak-chaos)"),
    ("faults.redispatches", "count", "lower", "faults", "run_s (peak-chaos)"),
    ("faults.stranded", "count", "lower", "faults", "served_rate (peak-chaos)"),
    ("service.decode_s", "s", "lower", "service", "run_s (stream-soak)"),
    ("service.submit_s", "s", "lower", "service", "run_s (stream-soak)"),
    ("service.submit_calls", "count", "lower", "service", "run_s (stream-soak)"),
    ("service.pump_s", "s", "lower", "service", "run_s (stream-soak)"),
    ("service.encode_s", "s", "lower", "service", "run_s (stream-soak)"),
    ("service.rejected", "count", "lower", "service", "ops_failed"),
    ("service.submit_to_decision_us_p50", "us", "lower", "service", "run_s (stream-soak)"),
    ("service.submit_to_decision_us_p95", "us", "lower", "service", "run_s (stream-soak)"),
    ("response_us_p99", "us", "lower", "core.matching", "response_us_p95"),
    ("host.factor", "ratio", "higher", "host", "every host-time metric (it is their multiplier)"),
    ("trace.spans", "count", "lower", "tracer", "-"),
    ("trace.span_cost_ns", "ns", "lower", "tracer", "-"),
    ("trace.span_cost_frac", "ratio", "lower", "tracer", "-"),
    ("trace.overhead_frac", "ratio", "lower", "tracer", "-"),
]

#: Kernel handler spans; their summed self time is the event-boundary work.
HANDLERS = ("sim.release", "sim.window_tick", "sim.rebalance_tick", "sim.drain_tick")

#: (spans, metrics.stages entries) timing the same calls from outside and
#: from inside: must agree within 5%.  ``window.matrix`` has no pair: no
#: public callable brackets it (``core.window_matrix_s`` is
#: ``build_cost_matrix`` minus its candidate searches, which also holds
#: the column bookkeeping the stage leaves out).
STAGE_CROSSCHECK = [
    (("core.dispatch", "core.window_match"), ("sim.dispatch",)),
    (("core.candidates",), ("match.candidates", "window.candidates")),
    (("core.route_basic",), ("route.basic",)),
    (("core.route_prob_own",), ("route.probabilistic",)),
    (("core.window_match",), ("window.solve",)),
    (("core.window_lap",), ("window.lap",)),
    (("fleet.rebalance_plan",), ("rebalance.plan",)),
]

#: What one span plus one stage timer cost around a call, seconds: the
#: span brackets the stage, so it reads longer by this much per call.
TIMER_COST_S = 5e-6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_totals(trace: dict) -> dict[str, float]:
    """Inclusive seconds per span name, plus the two derived exclusions."""
    total = {name: row["total_s"] for name, row in trace["by_name"].items()}
    edges = trace["edges"]
    # The probabilistic router delegates vector-less calls to the basic one.
    total["core.route_prob_own"] = total.get("core.route_prob", 0.0) - edges.get(
        "core.route_prob>core.route_basic", 0.0
    )
    # build_cost_matrix = candidate pruning (its own layer) + the matrix fill.
    total["core.window_matrix"] = total.get("core.window_build", 0.0) - edges.get(
        "core.window_build>core.candidates", 0.0
    )
    return total


def layer_metrics(child: dict, untraced_run_s: float) -> dict[str, float]:
    """Every :data:`LAYER_TABLE` value from one traced child's result."""
    trace = child["trace"]
    by_name = trace["by_name"]
    total = span_totals(trace)
    counters = child["counters"]
    store = child["store"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def self_s(name: str) -> float:
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def counter(name: str) -> float:
        return counters.get(name, 0)

    events = counter("kernel.events_processed")
    advance_calls = events * child["taxis"]
    hits, misses = counter("spe.cache_hits"), counter("spe.cache_misses")
    to_decision = child.get("submit_to_decision_us", [0.0, 0.0])
    out = {
        "py.import_s": t("py.import"),
        "demand.rows": child["trace_rows"],
        "demand.us_per_row": 1e6 * _ratio(t("demand.generate_days"), child["trace_rows"]),
        "demand.replay_rng_s": t("demand.replay_rng"),
        "network.ch_shortcuts": counter("sp.ch.shortcuts"),
        "artifacts.mmap_loads": sum(kind["mmap_loads"] for kind in store.values()),
        "artifacts.builds": sum(kind["builds"] for kind in store.values()),
        "network.sp_cache_hit_ratio": _ratio(hits, hits + misses),
        "network.ch_settled": counter("sp.ch.settled"),
        "kernel.events": events,
        "kernel.run_self_s": self_s("kernel.run"),
        "sim.boundary_self_s": sum(self_s(name) for name in HANDLERS),
        "sim.run_self_s": self_s("sim.run"),
        "sim.unattributed_frac": _ratio(
            self_s("setup") + self_s("run"), t("setup") + t("run")
        ),
        "sim.detour_min": child["detour_min"],
        "fleet.advance_calls": advance_calls,
        "fleet.advance_moved": counter("sim.taxi_advances"),
        "fleet.advance_useful_ratio": _ratio(counter("sim.taxi_advances"), advance_calls),
        "fleet.stops_fired": counter("sim.stop_notifications"),
        "fleet.advance_noop_ns": child["advance_noop_ns"],
        "fleet.rebalance_moves": counter("rebalance.moves"),
        "core.candidates_found": counter("match.candidates_found"),
        "core.match_self_s": self_s("core.match"),
        "core.insertions_evaluated": counter("match.insertions_evaluated"),
        "core.install_s": t("core.install"),
        "core.route_prob_s": t("core.route_prob_own"),
        "core.route_prob_calls": calls("core.route_prob"),
        "core.routes_planned": counter("match.routes_planned"),
        "core.planned_per_candidate": _ratio(
            counter("match.routes_planned"), counter("match.candidates_found")
        ),
        "core.window_matrix_s": t("core.window_matrix"),
        "core.window_lap_s": t("core.window_lap"),
        "core.window_cells": counter("window.matrix_cells"),
        "core.window_feasible_ratio": _ratio(
            counter("window.matrix_feasible"), counter("window.matrix_cells")
        ),
        "core.window_rolled": counter("window.rolled"),
        "faults.events": child["fault_events"],
        "faults.redispatches": counter("fault.redispatches"),
        "faults.stranded": counter("fault.stranded"),
        "service.decode_s": t("service.decode"),
        "service.pump_s": t("service.pump"),
        "service.encode_s": t("service.encode"),
        "service.rejected": child.get("service", {}).get("rejected", 0),
        "service.submit_to_decision_us_p50": to_decision[0],
        "service.submit_to_decision_us_p95": to_decision[1],
        "response_us_p99": child["response_us_p99"],
        "host.factor": child["host_factor"],
        "trace.spans": trace["spans"],
        "trace.span_cost_ns": child["span_cost_ns"],
        "trace.span_cost_frac": _ratio(
            trace["spans"] * child["span_cost_ns"] / 1e9, t("setup") + t("run")
        ),
        "trace.overhead_frac": _ratio(child["run_s"], untraced_run_s) - 1.0,
    }
    # The rest are "<span>_s" / "<span>_calls" read straight off the spans.
    for name, *_ in LAYER_TABLE:
        if name in out:
            continue
        span, _, suffix = name.rpartition("_")
        out[name] = t(span) if suffix == "s" else calls(span)
    return out


def stage_crosscheck(child: dict) -> list[dict]:
    """Harness span totals against the program's own stage totals."""
    total = span_totals(child["trace"])
    by_name = child["trace"]["by_name"]
    stages = child["stages"]
    rows = []
    for span_names, stage_names in STAGE_CROSSCHECK:
        stage_s = sum(stages.get(name, 0.0) for name in stage_names)
        if stage_s <= 0.0:
            continue
        span_s = sum(total.get(name, 0.0) for name in span_names)
        calls = sum(by_name.get(name.removesuffix("_own"), {}).get("calls", 0)
                    for name in span_names)
        rows.append({
            "span": "+".join(span_names),
            "stage": "+".join(stage_names),
            "span_s": span_s,
            "stage_s": stage_s,
            "rel": span_s / stage_s - 1.0,
            "ok": abs(span_s - stage_s) <= 0.05 * stage_s + TIMER_COST_S * calls,
        })
    return rows
