#!/usr/bin/env python3
"""End-to-end benchmark of the mT-Share reproduction: one command.

Report mode (people, CI)::

    python3 benchmarks/e2e/run.py [--seed S] [--workload NAME] [--out report.json] [--smoke]

runs the six workloads of workloads.py — 7 untraced repeats (end-to-end
metrics, median/min/max) plus 1 traced run (per-layer metrics) each —
prints every metric by name with its unit, checks the outputs, and
exits nonzero when a check fails.

Driver mode (the BENCHMARK.json contract)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

measures one workload for about T seconds and prints, as the last line
of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

One child process per (workload, repeat), strictly one at a time, each
single-threaded; see README.md for the run model and the metric glossary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything the harness writes lives here (inside the checkout, ignored by git).
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
STORE = os.path.join(BUILD, "store")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from layers import END_TO_END, LAYER_TABLE, SIM_METRICS, layer_metrics, stage_crosscheck
from workloads import DEFAULT_SEED, SMOKE_DIVISOR, WORKLOADS, Workload, scaled

#: Pinned in every child: one thread, one hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT_S = 170
#: Report mode: untraced repeats per workload (plus one traced run).
REPEATS = 7
#: Driver mode: never fewer untraced children than this, so that one
#: child hit by a burst of host noise cannot move the median.
MIN_CHILDREN = 3
#: Tracer self-check limits.
MAX_UNATTRIBUTED = 0.05
MAX_OVERHEAD = 0.10
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class ChildFailed(RuntimeError):
    """A benchmark child exited nonzero (its traceback is on stderr)."""


def run_child(w: Workload, seed: int, scale: float, traced: bool, mode: str = "run") -> dict:
    """Run one child to completion and return its result JSON."""
    os.makedirs(BUILD, exist_ok=True)
    store = os.path.join(BUILD, f"cold-{os.getpid()}") if w.cold else STORE
    if w.cold:
        shutil.rmtree(store, ignore_errors=True)  # the claim: an empty store each repeat
    os.makedirs(store, exist_ok=True)
    out = os.path.join(BUILD, f"result-{os.getpid()}.json")
    job = {
        "workload": w.name, "seed": seed, "scale": scale,
        "traced": traced, "mode": mode, "out": out,
    }
    env = dict(os.environ, **CHILD_ENV, REPRO_ARTIFACT_DIR=store)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise ChildFailed(f"{w.name}: child exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        if os.path.exists(out):
            os.remove(out)
        if w.cold:
            shutil.rmtree(store, ignore_errors=True)
    result["wall_s"] = time.perf_counter() - started
    return result


def prepare(w: Workload, seed: int, scale: float) -> float:
    """Warm the shared store for one workload, once per checkout.

    Runs the workload's whole set-up path untimed (cold-building the
    scenario artifacts, writing the soak JSONL) and leaves a marker, so
    every timed child finds a warm store and the load generator never
    runs inside a timed section.  Returns the seconds spent (0 if warm).
    """
    if w.cold:
        return 0.0
    key = f"{w.name}-x{scale:g}" + (f"-seed{seed}" if w.stream else "")
    marker = os.path.join(BUILD, f"prepared-{key}.json")
    if os.path.exists(marker):
        return 0.0
    started = time.perf_counter()
    run_child(w, seed, scale, traced=False, mode="prepare")
    elapsed = time.perf_counter() - started
    with open(marker, "w", encoding="utf-8") as handle:
        json.dump({"prepare_s": elapsed}, handle)
    return elapsed


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def correctness_checks(w: Workload, scale: float, children: list[dict]) -> list[dict]:
    """The hard guards on the program's outputs (balance is checked in-child)."""
    checks: list[dict] = []
    prints = {c["fingerprint"] for c in children}
    _check(checks, "fingerprint identical across repeats and traced run",
           len(prints) == 1, f"{len(children)} runs, {len(prints)} distinct")
    for metric in SIM_METRICS:
        values = {c[metric] for c in children}
        _check(checks, f"{metric} identical across runs", len(values) == 1, repr(sorted(values)))
    for c in children:
        tally = {k: sum(kind[k] for kind in c["store"].values()) for k in ("loads", "builds")}
        if w.cold:
            _check(checks, "cold store: zero artifact loads", tally["loads"] == 0, str(tally))
        else:
            _check(checks, "warm store: zero artifact builds", tally["builds"] == 0, str(tally))
    first = children[0]
    expected = scaled(w.requests, scale)
    _check(checks, "request count equals the recorded input size",
           first["requests"] == expected, f"{first['requests']} vs {expected}")
    _check(checks, "every request accounted", first["ops_attempted"] == first["requests"],
           f"{first['ops_attempted']} attempted vs {first['requests']}")
    _check(checks, "no operation failed", all(c["ops_failed"] == 0 for c in children),
           str([c["ops_failed"] for c in children]))
    if w.stream:
        svc = first["service"]
        _check(checks, "stream: submitted = admitted = request count",
               svc["submitted"] == svc["admitted"] == first["requests"], str(svc))
    if scale == 1.0:
        beyond = first["response_beyond_p95"]
        _check(checks, "p95 has at least ten samples beyond it", beyond >= 10,
               f"{beyond} of {first['response_samples']}")
    return checks


def tracer_checks(layer: dict, crosscheck: list[dict]) -> list[dict]:
    """Self-checks of the harness's own tracer (not of the program)."""
    checks: list[dict] = []
    _check(checks, f"sim.unattributed_frac <= {MAX_UNATTRIBUTED}",
           layer["sim.unattributed_frac"] <= MAX_UNATTRIBUTED,
           f"{layer['sim.unattributed_frac']:.4f}")
    # trace.overhead_frac (one traced run against the untraced median)
    # carries the host's +-15% run-to-run noise, so the pass/fail line is
    # drawn on the tracer's own cost: spans recorded x cost per span.
    _check(checks, f"trace.span_cost_frac <= {MAX_OVERHEAD}",
           layer["trace.span_cost_frac"] <= MAX_OVERHEAD,
           f"{layer['trace.spans']} spans x {layer['trace.span_cost_ns']:.0f} ns = "
           f"{layer['trace.span_cost_frac']:.4f} of the traced run "
           f"(trace.overhead_frac as measured {layer['trace.overhead_frac']:+.4f})")
    for row in crosscheck:
        _check(checks, f"span {row['span']} ~ stage {row['stage']} (5% + timer cost)",
               row["ok"], f"{row['span_s']:.4f}s vs {row['stage_s']:.4f}s ({row['rel']:+.2%})")
    return checks


def summarise(w: Workload, scale: float, prepare_s: float,
              untraced: list[dict], traced_child: dict | None) -> dict:
    """One workload's report from its finished children."""
    children = untraced + ([traced_child] if traced_child else [])
    end_to_end = {}
    for name, (unit, _better, _clock) in END_TO_END.items():
        values = [c[name] for c in untraced]
        end_to_end[name] = {
            "unit": unit,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
        if name in untraced[0]["raw"]:  # host time: keep what the clock read
            end_to_end[name]["as_measured"] = [c["raw"][name] for c in untraced]
    report = {
        "why": w.why,
        "requests": untraced[0]["requests"],
        "taxis": untraced[0]["taxis"],
        "prepare_s": prepare_s,
        "end_to_end": end_to_end,
        "response_samples": untraced[0]["response_samples"],
        "fingerprint": untraced[0]["fingerprint"],
        "ops_attempted": sum(c["ops_attempted"] for c in children),
        "ops_failed": sum(c["ops_failed"] for c in children),
        "child_wall_s": [c["wall_s"] for c in children],
        "host_factor": [c["host_factor"] for c in children],
        "checks": correctness_checks(w, scale, children),
        "tracer_checks": [],
    }
    if traced_child:
        layer = layer_metrics(traced_child, end_to_end["run_s"]["median"])
        units = {name: unit for name, unit, *_ in LAYER_TABLE}
        report["per_layer"] = {
            name: {"unit": units[name], "value": value} for name, value in layer.items()
        }
        report["stage_crosscheck"] = stage_crosscheck(traced_child)
        report["self_time"] = traced_child["trace"]["by_name"]
        report["traced"] = {k: traced_child["raw"][k] for k in ("setup_s", "run_s")}
        report["tracer_checks"] = tracer_checks(layer, report["stage_crosscheck"])
    report["correct"] = all(c["ok"] for c in report["checks"])
    return report


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_workload(name: str, rep: dict) -> None:
    print(f"\n== {name}: {rep['requests']} requests, {rep['taxis']} taxis ==")
    print(f"   {rep['why']}")
    print(f"   {'end-to-end metric':<22}{'unit':>6}{'median':>14}{'min':>14}{'max':>14}{'n':>4}")
    for metric, row in rep["end_to_end"].items():
        clock = END_TO_END[metric][2]
        print(f"   {metric:<22}{row['unit']:>6}{row['median']:>14.6g}{row['min']:>14.6g}"
              f"{row['max']:>14.6g}{len(row['values']):>4}  [{clock} time]")
    factors = ", ".join(f"{f:.3f}" for f in rep["host_factor"])
    print(f"   host-time metrics are at reference host speed: measured x host factor ({factors})")
    measured = ", ".join(
        f"{metric} {statistics.median(row['as_measured']):.6g}"
        for metric, row in rep["end_to_end"].items() if "as_measured" in row
    )
    print(f"   medians as measured: {measured}")
    print(f"   response percentiles over {rep['response_samples']} decisions per run; "
          f"fingerprint {rep['fingerprint'][:16]}; "
          f"ops failed {rep['ops_failed']} of {rep['ops_attempted']}")
    if "per_layer" in rep:
        layer_of = {n: layer for n, _u, _b, layer, _m in LAYER_TABLE}
        print(f"   {'per-layer metric (traced run)':<40}{'unit':>7}{'value':>16}  layer")
        for metric, row in rep["per_layer"].items():
            print(f"   {metric:<40}{row['unit']:>7}{row['value']:>16.6g}  {layer_of[metric]}")
        traced = rep["traced"]
        print(f"   {'span (self time sums to the wall clock)':<40}{'calls':>9}{'total_s':>11}{'self_s':>11}")
        spans = sorted(rep["self_time"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, row in spans:
            print(f"   {span:<40}{row['calls']:>9}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
        print(f"   {'sum of self times':<40}{'':>9}{'':>11}"
              f"{sum(r['self_s'] for r in rep['self_time'].values()):>11.4f}"
              f"  = traced setup_s + run_s as measured = {traced['setup_s'] + traced['run_s']:.4f}")
    for check in rep["checks"] + rep["tracer_checks"]:
        print(f"   [{'ok' if check['ok'] else 'FAIL'}] {check['name']}: {check['detail']}")


def header(seed: int, scale: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "child_env": CHILD_ENV,
    }


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def validate_report(report: dict, manifest: dict) -> list[str]:
    """Schema problems of a full report against BENCHMARK.json (empty = valid)."""
    problems = []
    declared = {
        "workloads": [w["name"] for w in manifest["workloads"]],
        "end_to_end": [m["name"] for m in manifest["end_to_end"]],
        "per_layer": [m["name"] for m in manifest["per_layer"]],
    }
    if sorted(report["workloads"]) != sorted(declared["workloads"]):
        problems.append(f"workloads {sorted(report['workloads'])} != declared")
    for name, rep in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            got = list(rep.get(section, {}))
            for metric in got:
                if not NAME_RE.match(metric):
                    problems.append(f"{name}: bad metric name {metric!r}")
            missing = set(declared[section]) - set(got)
            extra = set(got) - set(declared[section])
            if missing or extra:
                problems.append(f"{name}.{section}: missing {sorted(missing)}, "
                                f"undeclared {sorted(extra)}")
    return problems


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def driver_mode(args: argparse.Namespace) -> int:
    """One workload, one result line (the BENCHMARK.json contract)."""
    w = WORKLOADS[args.workload]
    prepare_s = prepare(w, args.seed, 1.0)
    untraced = [run_child(w, args.seed, 1.0, traced=False)]
    if args.trace:
        rep = summarise(w, 1.0, prepare_s, untraced, run_child(w, args.seed, 1.0, traced=True))
        metrics = rep["per_layer"]
    else:
        # Children until their timed sections add up to --seconds.
        while (len(untraced) < MIN_CHILDREN
               or sum(c["raw"]["setup_s"] + c["raw"]["run_s"] for c in untraced) < args.seconds):
            untraced.append(run_child(w, args.seed, 1.0, traced=False))
        rep = summarise(w, 1.0, prepare_s, untraced, None)
        metrics = rep["end_to_end"]
    print_workload(w.name, rep)
    attempted = rep["ops_attempted"]
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": attempted,
        "failed": rep["ops_failed"] if rep["correct"] else attempted,
        "metrics": {
            name: {"value": row.get("median", row.get("value")), "unit": row["unit"]}
            for name, row in metrics.items()
        },
    }))
    return 0 if rep["correct"] else 1


def report_mode(args: argparse.Namespace) -> int:
    """All (or one) workloads, REPEATS untraced + 1 traced each, full report."""
    scale = 1.0 / SMOKE_DIVISOR if args.smoke else 1.0
    selected = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    report = {"schema": 1, "header": header(args.seed, scale), "workloads": {}}
    print(json.dumps(report["header"]))
    started = time.perf_counter()
    prepare_s = {w.name: prepare(w, args.seed, scale) for w in selected}
    # Round-robin over the workloads, so that each one's repeats sample
    # the whole report's wall time: this host's speed drifts by +-15%
    # over minutes, and back-to-back repeats would all share one phase.
    untraced: dict[str, list[dict]] = {w.name: [] for w in selected}
    for _ in range(1 if args.smoke else REPEATS):
        for w in selected:
            untraced[w.name].append(run_child(w, args.seed, scale, traced=False))
    for w in selected:
        traced_child = run_child(w, args.seed, scale, traced=True)
        rep = summarise(w, scale, prepare_s[w.name], untraced[w.name], traced_child)
        report["workloads"][w.name] = rep
        print_workload(w.name, rep)
    report["header"]["prepare_s"] = sum(r["prepare_s"] for r in report["workloads"].values())
    report["header"]["wall_s"] = time.perf_counter() - started
    failed = [
        f"{name}: {check['name']}"
        for name, rep in report["workloads"].items()
        for check in rep["checks"] + rep["tracer_checks"]
        if not check["ok"]
    ]
    if args.smoke and not args.workload:
        failed += validate_report(report, load_manifest())
    report["ok"] = not failed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print(f"\nprepare_s {report['header']['prepare_s']:.1f} (informational), "
          f"total {report['header']['wall_s']:.1f} s")
    for line in failed:
        print(f"FAILED {line}")
    print("OK" if not failed else f"{len(failed)} check(s) failed")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", default=None, help="report mode: write the JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help="report mode: 1/20 size, 1 repeat + 1 traced, schema validation")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.trace is not None or args.seconds is not None:
            if args.workload is None or args.trace is None or args.seconds is None:
                parser.error("driver mode needs --workload, --seconds and --trace together")
            return driver_mode(args)
        return report_mode(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
