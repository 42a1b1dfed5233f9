#!/usr/bin/env python3
"""Compare two run.py reports: ``compare.py A.json B.json`` (A is the base).

One row per (workload, end-to-end metric): both medians with min-max,
the ratio B/A **with its base**, and a verdict against the metric's
bound in BENCHMARK.json:

``same``        B's median is within the bound of A's.
``worse``       B's median is worse than A's by more than the bound.
``better``      B's median is better than A's by more than the bound.
``unresolved``  a side's run-to-run spread (distance between the first
                and third quartile of its repeats, over their median)
                exceeds the bound *and* the two sides' ranges
                interleave, so the runs cannot tell which side is faster.

Exits nonzero on any ``worse``, on a changed fingerprint, or on a higher
``ops_failed / ops_attempted``.  ``unresolved`` rows do not fail the
exit code but are counted in the last line: an agreement check (two
sets of one commit) must show none.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for a single repeat).

    Inclusive quartiles: with the handful of repeats a report holds, the
    default exclusive method puts the quartiles on the extremes, and one
    child that met a burst of host noise would decide the spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """``(verdict, regression)`` of B against base A for one metric.

    ``regression`` is the share of A's median by which B is worse
    (negative when B is better), whatever the metric's direction.
    """
    sign = 1.0 if better == "lower" else -1.0
    regression = sign * (b["median"] - a["median"]) / abs(a["median"])
    interleaved = a["min"] <= b["max"] and b["min"] <= a["max"]
    if max(spread(a["values"]), spread(b["values"])) > bound and interleaved:
        return "unresolved", regression
    if regression > bound:
        return "worse", regression
    if regression < -bound:
        return "better", regression
    return "same", regression


def compare(report_a: dict, report_b: dict, manifest: dict) -> tuple[list[dict], list[str]]:
    """All comparison rows plus the hard failures (fingerprints, failures)."""
    spec = {m["name"]: m for m in manifest["end_to_end"]}
    rows, failures = [], []
    for workload, rep_a in report_a["workloads"].items():
        rep_b = report_b["workloads"].get(workload)
        if rep_b is None:
            failures.append(f"{workload}: missing from B")
            continue
        same_input = (
            report_a["header"]["seed"] == report_b["header"]["seed"]
            and report_a["header"]["scale"] == report_b["header"]["scale"]
        )
        if same_input and rep_a["fingerprint"] != rep_b["fingerprint"]:
            failures.append(f"{workload}: decision fingerprint changed "
                            f"({rep_a['fingerprint'][:12]} -> {rep_b['fingerprint'][:12]})")
        fail_a = rep_a["ops_failed"] / rep_a["ops_attempted"]
        fail_b = rep_b["ops_failed"] / rep_b["ops_attempted"]
        if fail_b > fail_a:
            failures.append(f"{workload}: failed share rose {fail_a:.6f} -> {fail_b:.6f}")
        for metric, a in rep_a["end_to_end"].items():
            b = rep_b["end_to_end"][metric]
            word, regression = verdict(a, b, spec[metric]["bound"], spec[metric]["better"])
            rows.append({
                "workload": workload, "metric": metric, "unit": a["unit"],
                "a": a, "b": b, "ratio": b["median"] / a["median"],
                "regression": regression, "bound": spec[metric]["bound"], "verdict": word,
            })
            if word == "worse":
                failures.append(f"{workload}.{metric}: worse by {regression:.1%} "
                                f"(bound {spec[metric]['bound']:.0%})")
    return rows, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    rows, failures = compare(reports[0], reports[1], manifest)
    print(f"A = {argv[0]} (commit {reports[0]['header']['commit'][:12]}, base of every ratio)")
    print(f"B = {argv[1]} (commit {reports[1]['header']['commit'][:12]})")
    print(f"{'workload':<13}{'metric':<18}{'unit':>6}{'A median [min-max]':>34}"
          f"{'B median [min-max]':>34}{'B/A':>8}{'bound':>7}  verdict")
    for row in rows:
        cells = [
            f"{side['median']:.5g} [{side['min']:.5g}-{side['max']:.5g}]"
            for side in (row["a"], row["b"])
        ]
        print(f"{row['workload']:<13}{row['metric']:<18}{row['unit']:>6}{cells[0]:>34}"
              f"{cells[1]:>34}{row['ratio']:>8.3f}{row['bound']:>7.2f}  {row['verdict']}")
    counts = {word: sum(r["verdict"] == word for r in rows)
              for word in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{n} {word}" for word, n in counts.items()))
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
