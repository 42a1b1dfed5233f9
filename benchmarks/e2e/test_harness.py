"""Unit tests of the benchmark harness's own arithmetic and schema.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1's
``testpaths`` does not include this directory).  Nothing here runs a
simulation: the percentile rule, the span self-time arithmetic, the
comparison verdicts and the report/BENCHMARK.json schema are pure.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import child
import compare
import layers
import run
import trace as spantrace
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    data = list(range(1, 101))  # 1..100
    assert child.percentile(data, 0.50) == 50
    assert child.percentile(data, 0.95) == 95
    assert child.percentile(data, 0.99) == 99
    assert child.percentile(data, 1.0) == 100
    assert child.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        child.percentile([], 0.5)


def test_percentile_exact_ranks_do_not_drift():
    # 0.95 * 200 is 190 in exact arithmetic; float rounding must not make it 191.
    data = list(range(200))
    assert child.percentile(data, 0.95) == 189
    assert child.samples_beyond(200, 0.95) == 10


@pytest.mark.parametrize(
    ("n", "p", "beyond"),
    [(200, 0.95, 10), (199, 0.95, 9), (1000, 0.99, 10), (4123, 0.95, 206), (20, 0.50, 10)],
)
def test_samples_beyond_rule(n, p, beyond):
    # A percentile is reportable only with at least ten samples beyond it.
    assert child.samples_beyond(n, p) == beyond


def test_host_factor_scales_to_reference_speed():
    ref = child.PROBE_REFERENCE_S
    assert child.host_factor([ref] * 15) == pytest.approx(1.0)
    # A host at half speed takes twice as long per chunk: measured times halve.
    assert child.host_factor([2 * ref] * 15) == pytest.approx(0.5)
    assert child.host_factor([ref, 3 * ref]) == pytest.approx(0.5)
    assert child.PROBES == []  # importing the module runs no probe


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_direct_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 60, 0),
        ("b", 20, 30, 1),
        ("b", 35, 45, 1),
        ("a", 70, 90, 0),
    ]
    agg = spantrace.aggregate(spans)
    by = agg["by_name"]
    assert agg["spans"] == 5
    assert by["root"] == {"calls": 1, "total_s": 100e-9, "self_s": pytest.approx(30e-9)}
    assert by["a"]["calls"] == 2
    assert by["a"]["total_s"] == pytest.approx(70e-9)
    assert by["a"]["self_s"] == pytest.approx(50e-9)  # 70 minus b's 20
    assert by["b"]["self_s"] == pytest.approx(20e-9)
    assert agg["edges"] == {"root>a": pytest.approx(70e-9), "a>b": pytest.approx(20e-9)}
    # Self times partition the root: the layer table sums to the wall clock.
    assert sum(row["self_s"] for row in by.values()) == pytest.approx(100e-9)


def test_tracer_records_nesting_and_survives_exceptions():
    tracer = spantrace.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + traced_inner(x))
    with tracer.span("section"):
        assert traced_outer(1) == 4
        with pytest.raises(ValueError):
            traced_inner(-1)
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["section", "outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 0]  # the raising call closed its span
    assert all(end >= start for _n, start, end, _p in spans)
    agg = spantrace.aggregate(spans)
    assert sum(r["self_s"] for r in agg["by_name"].values()) == pytest.approx(
        agg["by_name"]["section"]["total_s"]
    )


def test_wrap_iter_times_each_next():
    tracer = spantrace.Tracer()
    assert list(tracer.wrap_iter("decode", iter([1, 2, 3]))) == [1, 2, 3]
    assert spantrace.aggregate(tracer.spans())["by_name"]["decode"]["calls"] == 4  # + StopIteration
    assert list(spantrace.NullTracer().wrap_iter("decode", [1, 2])) == [1, 2]


def test_wrap_table_targets_are_public():
    for targets in spantrace.WRAP_TABLE.values():
        for target in targets:
            attr = target.rsplit(".", 1)[-1].split(":")[-1]
            assert not attr.startswith("_") or attr == "__init__", target


# ----------------------------------------------------------------------
# per-layer derivation and report schema
# ----------------------------------------------------------------------
def _traced_child():
    by_name = {
        "setup": {"calls": 1, "total_s": 1.0, "self_s": 0.02},
        "run": {"calls": 1, "total_s": 3.0, "self_s": 0.01},
        "sim.release": {"calls": 10, "total_s": 2.5, "self_s": 1.5},
        "sim.drain_tick": {"calls": 2, "total_s": 0.2, "self_s": 0.1},
        "core.route_prob": {"calls": 4, "total_s": 0.5, "self_s": 0.3},
        "core.route_basic": {"calls": 6, "total_s": 0.3, "self_s": 0.3},
    }
    return {
        "trace": {
            "spans": 24, "by_name": by_name,
            "edges": {"core.route_prob>core.route_basic": 0.2},
        },
        "counters": {"kernel.events_processed": 12, "sim.taxi_advances": 6,
                     "spe.cache_hits": 9, "spe.cache_misses": 1},
        "stages": {"route.basic": 0.29, "route.probabilistic": 0.3},
        "store": {"apsp": {"loads": 1, "builds": 0, "mmap_loads": 1, "misses": 0}},
        "taxis": 5, "trace_rows": 100, "detour_min": 0.5, "advance_noop_ns": 250.0,
        "fault_events": 0, "response_us_p99": 900.0, "run_s": 3.3, "span_cost_ns": 1000.0,
        "host_factor": 0.97,
    }


def test_layer_metrics_cover_the_table_exactly():
    values = layers.layer_metrics(_traced_child(), untraced_run_s=3.0)
    assert list(values) and set(values) == {row[0] for row in layers.LAYER_TABLE}
    assert values["sim.boundary_self_s"] == pytest.approx(1.6)
    assert values["sim.unattributed_frac"] == pytest.approx(0.03 / 4.0)
    assert values["fleet.advance_calls"] == 60
    assert values["fleet.advance_useful_ratio"] == pytest.approx(0.1)
    assert values["network.sp_cache_hit_ratio"] == pytest.approx(0.9)
    assert values["core.route_prob_s"] == pytest.approx(0.3)  # minus the delegated basic calls
    assert values["core.route_basic_calls"] == 6
    assert values["trace.overhead_frac"] == pytest.approx(0.1)
    assert values["trace.span_cost_frac"] == pytest.approx(24 * 1e-6 / 4.0)
    assert values["core.window_match_s"] == 0.0  # an idle layer reads zero, not missing


def test_stage_crosscheck_allows_timer_cost_only():
    rows = {row["span"]: row for row in layers.stage_crosscheck(_traced_child())}
    assert set(rows) == {"core.route_basic", "core.route_prob_own"}
    assert rows["core.route_basic"]["ok"]  # 0.30 vs 0.29: +3.4%
    assert rows["core.route_prob_own"]["rel"] == pytest.approx(0.0)
    drifted = _traced_child()
    drifted["stages"]["route.basic"] = 0.2
    assert not layers.stage_crosscheck(drifted)[0]["ok"]


def test_manifest_matches_the_tables(manifest):
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == [
        (name, unit, better) for name, (unit, better, _clock) in layers.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, _layer, _moves in layers.LAYER_TABLE
    ]
    assert len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(run.NAME_RE.match(n) and len(n) <= 64 for n in names)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def _report(manifest):
    def workload():
        return {
            "end_to_end": {m["name"]: {} for m in manifest["end_to_end"]},
            "per_layer": {m["name"]: {} for m in manifest["per_layer"]},
        }

    return {"workloads": {w["name"]: workload() for w in manifest["workloads"]}}


def test_validate_report_schema(manifest):
    report = _report(manifest)
    assert run.validate_report(report, manifest) == []
    del report["workloads"]["cold-ch"]["per_layer"]["trace.spans"]
    report["workloads"]["cold-ch"]["end_to_end"]["bad name"] = {}
    problems = "\n".join(run.validate_report(report, manifest))
    assert "trace.spans" in problems and "bad name" in problems
    del report["workloads"]["peak-greedy"]
    assert any("workloads" in p for p in run.validate_report(report, manifest))


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
def _side(median, lo=None, hi=None):
    lo, hi = median if lo is None else lo, median if hi is None else hi
    return {"median": median, "min": lo, "max": hi, "values": [lo, lo, median, hi, hi]}


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        (_side(10.0), _side(10.5), "lower", "same"),
        (_side(10.0), _side(11.5), "lower", "worse"),
        (_side(10.0), _side(8.5), "lower", "better"),
        (_side(0.50), _side(0.40), "higher", "worse"),
        (_side(0.50), _side(0.60), "higher", "better"),
        # noisy and interleaved: the runs cannot tell
        (_side(10.0, 9.0, 11.0), _side(11.5, 10.5, 12.5), "lower", "unresolved"),
        # noisy but every B run is slower than every A run
        (_side(10.0, 9.0, 11.0), _side(13.0, 12.0, 14.0), "lower", "worse"),
    ],
)
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, bound=0.10, better=better)[0] == expected


def test_spread_is_interquartile_over_median():
    assert compare.spread([10.0]) == 0.0
    assert compare.spread([9.0, 9.0, 10.0, 11.0, 11.0]) == pytest.approx(0.2)
    # One slow outlier among five repeats does not decide the spread.
    assert compare.spread([10.0, 10.0, 10.0, 10.0, 14.0]) == 0.0


def test_compare_flags_fingerprint_and_failures(manifest):
    def report(fingerprint, failed):
        metrics = {m["name"]: dict(_side(1.0), unit=m["unit"]) for m in manifest["end_to_end"]}
        return {
            "header": {"seed": 1, "scale": 1.0, "commit": "x"},
            "workloads": {"peak-greedy": {
                "fingerprint": fingerprint, "ops_attempted": 100, "ops_failed": failed,
                "end_to_end": metrics,
            }},
        }

    rows, failures = compare.compare(report("aa", 0), report("aa", 0), manifest)
    assert failures == [] and {r["verdict"] for r in rows} == {"same"}
    _rows, failures = compare.compare(report("aa", 0), report("bb", 3), manifest)
    assert len(failures) == 2
