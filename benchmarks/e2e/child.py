"""One benchmark child: set one workload up, run it once, write one JSON.

Spawned by run.py as ``python child.py '<job json>'``, one process per
(workload, repeat), so every in-process cache (CH memos, leg cache,
scenario LRU) starts cold exactly as it does for a CLI user.  The clock
is taken before anything but the first host probe: ``setup_s`` runs from
there, through the imports, to the simulator/service being ready.

Host probes.  This box's speed moves by +-15% for a minute at a time, so
twice per child — before set-up and after the run, never inside a timed
section — a fixed pure-Python kernel is timed, and every host-time
metric is reported at reference host speed: ``measured *
PROBE_REFERENCE_S / mean probe chunk`` (README.md, "Host speed").  The
measured values are kept under ``"raw"``.  There is no probe between
set-up and run: its heap would sit on top of the program's memory at
its peak and show in ``peak_rss_mb``.
"""

from time import perf_counter_ns

#: Chunks per probe; one chunk is PROBE_LOOP iterations of cache-resident
#: dict/float/list work, then PROBE_STEPS strided reads over a ~20 MB heap
#: of small objects: the program slows with the host's cores *and* with
#: its caches and memory, and a kernel that felt only one would follow
#: only half of what the program feels.
PROBE_CHUNKS = 6
PROBE_LOOP = 300_000
PROBE_OBJECTS = 50_000
PROBE_STEPS = 20_000
PROBE_STRIDE = 7_919  # prime, so the walk visits every object
#: One chunk on this box at its usual speed: the factor is ~1 on a quiet host.
PROBE_REFERENCE_S = 0.055


def host_probe() -> list[float]:
    """Seconds per chunk of the fixed kernel (the host's speed right now)."""
    table = {i: float(i) for i in range(1000)}
    heap = [{"a": float(i), "b": (i, i + 1), "c": [i]} for i in range(PROBE_OBJECTS)]
    chunks = []
    at = 0
    for _ in range(PROBE_CHUNKS):
        acc, kept = 0.0, []
        t0 = perf_counter_ns()
        for i in range(PROBE_LOOP):
            acc += table[i % 1000] * 1.0001
            if i & 7 == 0:
                kept.append(acc)
        for _step in range(PROBE_STEPS):
            obj = heap[at]
            acc += obj["a"] + obj["b"][1] + obj["c"][0]
            at = (at + PROBE_STRIDE) % PROBE_OBJECTS
        chunks.append((perf_counter_ns() - t0) / 1e9)
    return chunks


def host_factor(chunks: list[float]) -> float:
    """Multiplier taking a measured time to reference host speed."""
    return PROBE_REFERENCE_S * len(chunks) / sum(chunks)


PROBES = [host_probe()] if __name__ == "__main__" else []
T0_NS = perf_counter_ns()

import hashlib
import json
import math
import os
import resource
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from trace import NullTracer, Tracer, aggregate, install, span_cost_ns
from workloads import CITY_SEED, SOAK_RATE_PER_S, SOAK_RHO, WORKLOADS, scaled


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p`` percentile among ``n`` samples."""
    return max(1, min(n, math.ceil(p * n - 1e-9)))


def percentile(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``0 < p <= 1``)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p`` percentile of ``n``.

    The rule (choosing-metrics): a percentile is reportable only with at
    least ten samples beyond it, so p95 needs n >= 200 and p99 n >= 1000.
    """
    return n - _rank(n, p)


def soak_trace_path(store_dir: str, seed: int, count: int) -> str:
    return os.path.join(store_dir, f"soak-seed{seed}-n{count}.jsonl")


def _fingerprint(sim, metrics, decisions) -> str:
    """sha256 over everything a decision change would move (no host times)."""
    payload = {
        "trips": {
            str(rid): (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
            for rid, t in sorted(sim.log.trips.items())
        },
        "buckets": [
            metrics.served_online, metrics.served_offline, metrics.completed,
            metrics.expired_offline, metrics.unserved_online, metrics.unserved_offline,
            metrics.cancelled, metrics.stranded, metrics.reassigned, metrics.rejected,
            metrics.breakdowns, metrics.shock_delays,
        ],
        "waiting": metrics.waiting_times_s,
        "waiting_total": metrics.waiting_stat.total,
        "detour": metrics.detour_times_s,
        "detour_total": metrics.detour_stat.total,
        "candidates": metrics.candidate_counts,
        "fares": [metrics.shared_fares, metrics.driver_incomes, metrics.regular_fares],
        "insertions": metrics.counters.get("match.insertions_evaluated"),
        "decisions": hashlib.sha256(decisions.tobytes()).hexdigest(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def main(job: dict) -> dict:
    traced = bool(job["traced"])
    tr = Tracer() if traced else NullTracer()
    w = WORKLOADS[job["workload"]]
    seed, scale = int(job["seed"]), float(job["scale"])

    tr.open("setup", T0_NS)
    tr.open("py.import", T0_NS)  # the stdlib and harness imports above count too
    import numpy as np  # noqa: F401
    from repro import artifacts
    from repro.core.payment import PaymentModel
    from repro.service import (
        AdmissionPolicy, DispatchService, ServiceConfig,
        decision_to_dict, jsonl_requests, request_to_dict,
    )
    from repro.service.sources import synthetic_requests
    from repro.sim.engine import Simulator
    from repro.sim.scenario import ScenarioSpec, get_scenario
    tr.close()
    if traced:
        with tr.span("trace.install"):
            install(tr)

    spec = ScenarioSpec(kind=w.kind, seed=CITY_SEED, **w.spec)
    with tr.span("scenario.get"):
        scenario = get_scenario(spec)
    overrides = {} if w.window_s is None else {"dispatch_window_s": w.window_s}
    config = scenario.default_config(**overrides)
    with tr.span("scenario.make_scheme"):
        scheme = scenario.make_scheme(w.scheme, config)
    taxis = scaled(w.taxis, scale)
    with tr.span("scenario.make_fleet"):
        fleet = scenario.make_fleet(taxis, seed=seed)

    store_dir = os.environ["REPRO_ARTIFACT_DIR"]
    trace_path = None
    if w.stream:
        count = scaled(w.requests, scale)
        trace_path = soak_trace_path(store_dir, seed, count)
        if job["mode"] == "prepare" and not os.path.exists(trace_path):
            with open(trace_path + ".tmp", "w", encoding="utf-8") as handle:
                for request in synthetic_requests(
                    scheme.engine, count, rate_per_s=SOAK_RATE_PER_S, rho=SOAK_RHO, seed=seed
                ):
                    handle.write(json.dumps(request_to_dict(request)) + "\n")
            os.replace(trace_path + ".tmp", trace_path)
        requests = []
        num_requests = count
    else:
        with tr.span("scenario.requests"):
            requests = scenario.requests(offline_count=w.offline or None, seed=seed)
        # Smoke scale: the first 1/k of the hour on 1/k of the fleet.
        requests = requests[: scaled(len(requests), scale)] if scale != 1.0 else requests
        num_requests = len(requests)

    plan = policy = None
    if w.faults:
        with tr.span("scenario.fault_plan"):
            plan = scenario.fault_plan(w.faults.format(seed=seed + 6), fleet, requests)
    if w.rebalance:
        with tr.span("scenario.rebalance_policy"):
            policy = scenario.rebalance_policy(w.rebalance, config)

    sim = Simulator(
        scheme, fleet, requests,
        payment=PaymentModel() if w.payment else None,
        faults=plan, rebalance=policy, compact=w.stream,
    )
    service = None
    decisions = array("q")  # (request id, taxi id or -1) per decision, in order
    if w.stream:
        encode = tr.wrap("service.encode", lambda record: json.dumps(decision_to_dict(record)))
        submit_ns: dict[int, int] = {}
        to_decision_us = array("d")

        def sink(record) -> None:
            encode(record)
            decisions.append(record.request_id)
            decisions.append(-1 if record.taxi_id is None else record.taxi_id)
            submitted_ns = submit_ns.pop(record.request_id, None)
            if submitted_ns is not None:
                to_decision_us.append((perf_counter_ns() - submitted_ns) / 1e3)

        service = DispatchService(
            sim,
            # The stream is unique and sorted by construction, so the
            # duplicate set (which would grow with the stream) stays off.
            ServiceConfig(admission=AdmissionPolicy(dedupe=False), keep_decisions=False),
            on_decision=sink,
        )
        service.start()

    # Response time as the paper defines it: the dispatch latency the
    # simulator hands to its decision hook, first looks and redispatches.
    # Street hails and requests that expire inside a window buffer are
    # delivered with an elapsed time of exactly 0 (no dispatch ran for
    # them) and carry no latency sample.
    latencies_s = array("d")
    downstream = sim.on_decision

    def on_decision(request, now, matched, taxi_id, elapsed_s, kind) -> None:
        if elapsed_s > 0.0:
            latencies_s.append(elapsed_s)
        if downstream is not None:
            downstream(request, now, matched, taxi_id, elapsed_s, kind)
        else:
            decisions.append(request.request_id)
            decisions.append(-1 if taxi_id is None else taxi_id)

    sim.on_decision = on_decision
    tr.close()  # setup
    setup_s = (perf_counter_ns() - T0_NS) / 1e9
    if job["mode"] == "prepare":
        return {"setup_s": setup_s}
    ready_ns = perf_counter_ns()

    with tr.span("run"):
        if service is None:
            metrics = sim.run()
        else:
            for request in tr.wrap_iter("service.decode", jsonl_requests(trace_path)):
                if traced:
                    submit_ns[request.request_id] = perf_counter_ns()
                service.submit(request)
                service.pump()
            metrics = service.finish()
    run_s = (perf_counter_ns() - ready_ns) / 1e9
    # Before the last probe builds its heap on top of the run's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    PROBES.append(host_probe())

    metrics.check_balance()
    ordered = sorted(latencies_s)
    raw = {
        "setup_s": setup_s,
        "run_s": run_s,
        "response_us_p50": 1e6 * percentile(ordered, 0.50),
        "response_us_p95": 1e6 * percentile(ordered, 0.95),
        "response_us_p99": 1e6 * percentile(ordered, 0.99),
    }
    factor = host_factor([chunk for probe in PROBES for chunk in probe])
    result = {
        "requests": num_requests,
        "taxis": taxis,
        **{name: value * factor for name, value in raw.items()},
        "raw": raw,
        "host_factor": factor,
        "peak_rss_mb": peak_rss_mb,
        "response_samples": len(ordered),
        "response_beyond_p95": samples_beyond(len(ordered), 0.95),
        "served_rate": metrics.service_rate,
        "waiting_min": metrics.avg_waiting_min,
        "detour_min": metrics.avg_detour_min,
        "delay_min": metrics.avg_waiting_min + metrics.avg_detour_min,
        "ops_attempted": metrics.num_requests,
        "ops_failed": metrics.rejected,
        "fingerprint": _fingerprint(sim, metrics, decisions),
        "store": artifacts.stats(),
        "counters": metrics.counters,
        "stages": {k: v["total_s"] for k, v in metrics.stages.items()},
        "fault_events": plan.num_events if plan is not None else 0,
        "trace_rows": len(scenario.history) + len(scenario.window_trips),
    }
    if service is not None:
        result["service"] = {
            "submitted": service.submitted,
            "admitted": service.admitted,
            "rejected": sum(service.rejections.values()),
        }
    if traced:
        result["trace"] = aggregate(tr.spans())
        result["span_cost_ns"] = span_cost_ns()
        if service is not None:
            waits = sorted(to_decision_us)
            result["submit_to_decision_us"] = [percentile(waits, 0.50), percentile(waits, 0.95)]
        # What one no-op poll of a parked taxi costs: the fleet sweep's unit.
        parked = [t for t in sim.fleet.values() if t.idle and not t.out_of_service]
        calls = 100_000
        t_now = sim.kernel.now + 1.0
        t0 = perf_counter_ns()
        for i in range(calls if parked else 0):
            parked[i % len(parked)].advance(t_now)
        result["advance_noop_ns"] = (perf_counter_ns() - t0) / calls
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    outcome = main(job)
    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
