"""The paper's claims, each stated once, and the verdicts computed from them.

:data:`CLAIMS` has one row per claim EXPERIMENTS.md gives a verdict for:
the headline claims, one per figure or table, and one per ablation.  A
row names the registered experiment(s) it reads, quotes the paper, and
checks the measurement with *direction* checks (the signs the paper
states: who beats whom, what rises or falls) and *magnitude* checks (the
paper's ratios and percentages, each within a factor of two).  The
verdict over the seeds of :data:`CLAIM_SEEDS` is fixed by :func:`verdict`.

Three consumers read the table and nothing else:

* ``benchmarks/bench_claims.py`` runs each experiment once at quick
  scale and asserts the checks marked ``quick`` of the rows reading it;
* ``repro experiment claims`` (:func:`measure_claims`) runs every
  experiment the rows read on each seed and prints the results and
  verdicts as JSON — committed at full scale as ``EXPERIMENTS.json``;
* :func:`render` turns that JSON into the verdict block of EXPERIMENTS.md
  (``python -m repro.experiments.claims`` rewrites it in place).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from ..network.shortest_path import FULL_APSP_LIMIT
from ..reporting import ExperimentResult
from .ablations import ALL_ABLATIONS
from .figures import ALL_EXPERIMENTS
from .runner import BenchScale, Experiment, bench_scale, planning

#: The scenario seeds every verdict must hold on (the paper averages ten
#: repetitions per setting; each seed here is a fresh synthetic city,
#: trace and partitioning).
CLAIM_SEEDS = (7, 11, 13)

PASS, PARTIAL, FAIL = "✅", "🟡", "❌"

#: One seed's results, by experiment name.
Results = Mapping[str, ExperimentResult]


class Check(NamedTuple):
    """One predicate over a claim's results (in its ``experiments``
    order); ``quick``: the quick-scale bench asserts it."""

    text: str
    holds: Callable[..., bool]
    quick: bool


@dataclass(frozen=True)
class Claim:
    """One paper claim: what it reads, what it says, how it is checked."""

    key: str
    title: str
    experiments: tuple[str, ...]
    paper: str
    direction: tuple[Check, ...]
    magnitude: tuple[Check, ...]
    measured: Callable[..., str]

    def read(self, results: Results) -> tuple[ExperimentResult, ...]:
        """This claim's experiments' results, in its ``experiments`` order."""
        return tuple(results[name] for name in self.experiments)


def verdict(claim: Claim, per_seed: Mapping[int, Results]) -> str:
    """✅ when every check holds on every seed, 🟡 when only the direction
    checks do, ❌ otherwise."""

    def holds(checks: tuple[Check, ...]) -> bool:
        return all(c.holds(*claim.read(r)) for r in per_seed.values() for c in checks)

    if not holds(claim.direction):
        return FAIL
    return PASS if holds(claim.magnitude) else PARTIAL


# ----------------------------------------------------------------------
# helpers the checks are written in
# ----------------------------------------------------------------------
_ABBR = {"no-sharing": "NS", "t-share": "TS", "pgreedydp": "PG",
         "mt-share": "MT", "mt-share-pro": "PRO"}
_SHARING = ("t-share", "pgreedydp", "mt-share")
_GRID = ("t-share", "pgreedydp")
_KINDS = ("peak", "nonpeak")


def _near(value: float, low: float, high: float | None = None) -> bool:
    """Within a factor of two of the paper's number (or range)."""
    return low / 2.0 <= value <= 2.0 * (low if high is None else high)


def _gain(a: float, b: float) -> float:
    """Percent by which ``a`` exceeds ``b``."""
    return 100.0 * (a / b - 1.0) if b else float("inf")


def _rising(values: list) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _last(res: ExperimentResult):
    return res.x_values[-1]


def _every(res: ExperimentResult, pred: Callable[[object], bool]) -> bool:
    return all(pred(x) for x in res.x_values)


def _mean(res: ExperimentResult, series: str) -> float:
    """A series' average over the sweep: the height of its curve."""
    return sum(res.series[series]) / len(res.series[series])


def _mean_gain(res: ExperimentResult, a: str, b: str) -> float:
    gains = [_gain(res.value(a, x), res.value(b, x)) for x in res.x_values]
    return sum(gains) / len(gains)


def _last_gain(res: ExperimentResult, a: str, b: str) -> float:
    return _gain(res.value(a, _last(res)), res.value(b, _last(res)))


def _values(*results: ExperimentResult) -> list:
    return [v for res in results for s in res.series.values() for v in s]


def _sharing_values(*results: ExperimentResult) -> list:
    return [v for res in results for s in _SHARING for v in res.series[s]]


def _peak(res: ExperimentResult, day: str) -> float:
    """Fig. 5's highest hourly utilisation on ``day``."""
    return max(res.series[day][:-1])


def _trip_minutes(res: ExperimentResult) -> tuple[float, float]:
    """Fig. 5's trip travel-time p50 and p90 over the whole trace."""
    return res.value("trip p50 min", "all hours"), res.value("trip p90 min", "all hours")


def _n(v) -> str:
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _joined(values, fmt: Callable = str, sep: str = "/") -> str:
    return sep.join(map(fmt, values))


def _span(values: list) -> str:
    return f"{_n(min(values))}–{_n(max(values))}"


def _column(res: ExperimentResult, x) -> str:
    """Every series at ``x``: ``NS 491, TS 790, ... @300``."""
    cells = ", ".join(f"{_ABBR.get(s, s)} {_n(res.value(s, x))}" for s in res.series)
    return f"{cells} @{x}"


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
_PEAK_MARGIN = Check(
    "at the largest fleet MT's gain over TS is 21–84% and over PG 18–72%",
    lambda res: _near(_last_gain(res, "mt-share", "t-share"), 42)
    and _near(_last_gain(res, "mt-share", "pgreedydp"), 36), False)
_PRO_OVER_GRID = Check(
    "PRO's gain over each of TS and PG, averaged over the sweep, is 29–124%",
    lambda res: all(_near(_mean_gain(res, "mt-share-pro", s), 58, 62) for s in _GRID), False)
_PAYMENT_POSITIVE = Check(
    "both percentages are positive at ρ = 1.3",
    lambda res: res.value("passenger saving %", 1.3) > 0
    and res.value("driver gain %", 1.3) > 0, True)
_PAYMENT_SIZE = Check(
    "saving 4.3–17.2% and driver gain 3.9–15.6% at ρ = 1.3",
    lambda res: _near(res.value("passenger saving %", 1.3), 8.6)
    and _near(res.value("driver gain %", 1.3), 7.8), False)
_NO_DETOUR = Check("NS never detours",
                   lambda res: all(v < 1e-9 for v in res.series["no-sharing"]), True)
_NO_NEGATIVE_WAIT = Check("no waiting time is negative",
                          lambda res: all(v >= 0 for v in _values(res)), True)

HEADLINE = (
    Claim(
        "latency", "Responds to each request in milliseconds", ("fig7", "fig11"),
        "dispatch answers every request in milliseconds",
        (Check("every scheme's mean response is under 1 s at every fleet size, peak and "
               "non-peak", lambda peak, nonpeak: max(_values(peak, nonpeak)) < 1000.0, False),),
        (),
        lambda peak, nonpeak: f"peak {_span(_values(peak))} ms, "
        f"non-peak {_span(_values(nonpeak))} ms",
    ),
    Claim(
        "pro-vs-mt", "mT-Share_pro serves 13–24% more than mT-Share (non-peak)",
        ("fig10",), "mT-Share_pro serves 13–24% more than mT-Share",
        (Check("PRO serves more than MT on average over the fleet sweep",
               lambda res: _mean(res, "mt-share-pro") > _mean(res, "mt-share"), False),),
        (Check("PRO's gain over MT, averaged over the fleet sweep, is 6.5–48%",
               lambda res: _near(_mean_gain(res, "mt-share-pro", "mt-share"), 13, 24), False),),
        lambda res: f"mean +{_mean_gain(res, 'mt-share-pro', 'mt-share'):.0f}%",
    ),
    Claim(
        "pro-vs-grid", "mT-Share_pro serves 58–62% more than T-Share/pGreedyDP (non-peak)",
        ("fig10",), "mT-Share_pro serves 58–62% more than T-Share and pGreedyDP",
        (Check("PRO serves more than TS and PG on average over the fleet sweep",
               lambda res: _mean(res, "mt-share-pro") > max(_mean(res, s) for s in _GRID),
               False),),
        (_PRO_OVER_GRID,),
        lambda res: "mean +{:.0f}% / +{:.0f}%".format(
            *(_mean_gain(res, "mt-share-pro", s) for s in _GRID)),
    ),
    Claim(
        "peak-served", "mT-Share serves 42%/36% more than T-Share/pGreedyDP (peak)",
        ("fig6",), "at 3000 taxis mT-Share serves 42% more than T-Share and 36% more "
        "than pGreedyDP",
        (Check("MT serves more than TS and PG on average over the fleet sweep",
               lambda res: _mean(res, "mt-share") > max(_mean(res, s) for s in _GRID), False),),
        (_PEAK_MARGIN,),
        lambda res: "MT vs TS / PG: {:+.1f}% / {:+.1f}% on average, {:+.1f}% / {:+.1f}% at "
        "{}".format(*(_mean_gain(res, "mt-share", s) for s in _GRID),
                    *(_last_gain(res, "mt-share", s) for s in _GRID), _last(res)),
    ),
    Claim(
        "payment", "Payment model: passengers save 8.6%, drivers earn 7.8% more (ρ = 1.3)",
        ("fig19",), "at ρ = 1.3 passengers save 8.6% and drivers earn 7.8% more",
        (_PAYMENT_POSITIVE,),
        (_PAYMENT_SIZE,),
        lambda res: "save {:.1f}%, earn +{:.1f}%".format(
            res.value("passenger saving %", 1.3), res.value("driver gain %", 1.3)),
    ),
    Claim(
        "detour-waiting", "Moderate detours (1–4 min) and waiting (1–4 min)",
        ("fig8", "fig9"), "sharing schemes detour 1–4 min and wait 1–4 min",
        (Check("every sharing scheme's mean detour and waiting are positive and under "
               "4 min at every fleet size",
               lambda detour, waiting: all(0 < v < 4 for v in _sharing_values(detour, waiting)),
               False),),
        (Check("every sharing scheme's mean detour and waiting are 0.5–8 min",
               lambda detour, waiting: all(_near(v, 1, 4)
                                           for v in _sharing_values(detour, waiting)), False),),
        lambda detour, waiting: f"detour {_span(_sharing_values(detour))} min, "
        f"waiting {_span(_sharing_values(waiting))} min",
    ),
)

FIGURES = (
    Claim(
        "fig5", "Fig. 5 — dataset statistics", ("fig5",),
        "workday utilisation 56% at 8–9 a.m., weekend 41% at 10–11 a.m.; trip times "
        "p50 = 15 min, p90 = 30 min",
        (Check("every utilisation lies in [0, 1]",
               lambda res: all(0.0 <= u <= 1.0 for s in ("workday", "weekend")
                               for u in res.series[s]), True),
         Check("the workday peak exceeds the weekend peak",
               lambda res: _peak(res, "workday") > _peak(res, "weekend"), True),
         Check("the workday has a morning commute peak: 8 a.m. above 6 and 10 a.m.",
               lambda res: res.value("workday", 8)
               > max(res.value("workday", h) for h in (6, 10)), False)),
        (Check("workday peak 0.28–1.12, weekend peak 0.21–0.82, trip p50 7.5–30 min and "
               "p90 15–60 min",
               lambda res: all(_near(value, paper) for value, paper in zip(
                   (_peak(res, "workday"), _peak(res, "weekend"), *_trip_minutes(res)), (0.56, 0.41, 15, 30))), False),),
        lambda res: "workday {} at 8h, peak {}; weekend peak {}; trips p50 {} / p90 {} "
        "min".format(*map(_n, (res.value("workday", 8), _peak(res, "workday"),
                               _peak(res, "weekend"), *_trip_minutes(res)))),
    ),
    Claim(
        "fig6", "Fig. 6 — served requests (peak)", ("fig6",),
        "mT-Share ≫ pGreedyDP > T-Share ≫ No-Sharing; all grow with fleet",
        (Check("every sharing scheme serves more than NS at every fleet size",
               lambda res: _every(res, lambda x: min(res.value(s, x) for s in _SHARING)
                                  > res.value("no-sharing", x)), True),
         Check("every scheme's served count grows with the fleet",
               lambda res: all(_rising(v) for v in res.series.values()), True),
         Check("MT > PG > TS on average over the fleet sweep",
               lambda res: _mean(res, "mt-share") > _mean(res, "pgreedydp")
               > _mean(res, "t-share"), False)),
        (_PEAK_MARGIN,),
        lambda res: _column(res, _last(res)),
    ),
    Claim(
        "fig7", "Fig. 7 — response time (peak)", ("fig7",),
        "No-Sharing <1 ms; T-Share fastest sharing; mT-Share 35–140 ms; pGreedyDP "
        "4–10× mT-Share",
        (Check("NS responds fastest at every fleet size",
               lambda res: _every(res, lambda x: res.value("no-sharing", x)
                                  < min(res.value(s, x) for s in _SHARING)), True),
         Check("on average over the sweep TS is the fastest sharing scheme and PG slower "
               "than MT",
               lambda res: _mean(res, "t-share") <= min(_mean(res, s) for s in _SHARING)
               and _mean(res, "pgreedydp") > _mean(res, "mt-share"), False)),
        (Check("at the largest fleet PG/MT is 2–20×",
               lambda res: _near(res.value("pgreedydp", _last(res))
                                 / res.value("mt-share", _last(res)), 4, 10), False),),
        lambda res: _column(res, _last(res)) + " (ms)",
    ),
    Claim(
        "table3", "Table III — candidate-set sizes (peak)", ("table3",),
        "T-Share 12.5–16 (flat), pGreedyDP 22–54 (largest), mT-Share 12–28 (≈ half of "
        "pGreedyDP)",
        (Check("PG gathers the most sharing candidates at every fleet size (MT < PG, "
               "TS ≤ PG)",
               lambda res: _every(res, lambda x: res.value("mt-share", x)
                                  < res.value("pgreedydp", x)
                                  and res.value("t-share", x) <= res.value("pgreedydp", x)),
               True),),
        (Check("TS's largest/smallest set over the sweep is 0.64–2.56 (paper 16/12.5)",
               lambda res: _near(max(res.series["t-share"]) / min(res.series["t-share"]),
                                 16 / 12.5), False),
         Check("at the largest fleet MT/PG is 0.26–1.04 (paper 28/54)",
               lambda res: _near(res.value("mt-share", _last(res))
                                 / res.value("pgreedydp", _last(res)), 28 / 54), False)),
        lambda res: "TS {}, PG {}, MT {} over the sweep".format(
            *(_span(res.series[s]) for s in _SHARING)),
    ),
    Claim(
        "fig8", "Fig. 8 — detour time (peak)", ("fig8",),
        "No-Sharing 0; T-Share smallest (1–2 min), mT-Share close second, pGreedyDP ≈ 2× "
        "T-Share",
        (_NO_DETOUR,
         Check("on average over the sweep TS detours least, then MT, then PG",
               lambda res: _mean(res, "t-share") <= _mean(res, "mt-share")
               <= _mean(res, "pgreedydp"), False)),
        (Check("MT is within 0.1 min of the best sharing scheme at every fleet size",
               lambda res: _every(res, lambda x: res.value("mt-share", x)
                                  <= min(res.value(s, x) for s in _SHARING) + 0.1), True),
         Check("PG/TS averaged over the sweep is 1–4×",
               lambda res: _near(_mean(res, "pgreedydp") / _mean(res, "t-share"), 2), False)),
        lambda res: _column(res, _last(res)) + " (min)",
    ),
    Claim(
        "fig9", "Fig. 9 — waiting time (peak)", ("fig9",),
        "decreases with fleet size; T-Share smallest; mT-Share slightly above pGreedyDP "
        "(gap < 0.5 min)",
        (_NO_NEGATIVE_WAIT,
         Check("every sharing scheme waits no longer at the largest fleet than at the "
               "smallest",
               lambda res: all(res.series[s][-1] <= res.series[s][0] for s in _SHARING), True),
         Check("on average over the sweep TS waits least, then PG, then MT",
               lambda res: _mean(res, "t-share") <= _mean(res, "pgreedydp")
               <= _mean(res, "mt-share"), False)),
        (Check("MT and PG wait within 0.5 min of each other at every fleet size",
               lambda res: _every(res, lambda x: abs(res.value("mt-share", x)
                                                     - res.value("pgreedydp", x)) < 0.5),
               False),),
        lambda res: _column(res, _last(res)) + " (min)",
    ),
    Claim(
        "fig10", "Fig. 10 — served requests (non-peak)", ("fig10",),
        "ridesharing advantage narrows; mT-Share_pro wins big (+58–62% over baselines); "
        "mT-Share > pGreedyDP > T-Share",
        (Check("PRO serves the most at every fleet size",
               lambda res: _every(res, lambda x: res.value("mt-share-pro", x)
                                  > max(res.value(s, x) for s in res.series
                                        if s != "mt-share-pro")), True),
         Check("MT > PG > TS on average over the fleet sweep",
               lambda res: _mean(res, "mt-share") > _mean(res, "pgreedydp")
               > _mean(res, "t-share"), False)),
        (Check("at the largest fleet PRO serves at least 5% more than MT",
               lambda res: res.value("mt-share-pro", _last(res))
               >= 1.05 * res.value("mt-share", _last(res)), True),
         _PRO_OVER_GRID),
        lambda res: _column(res, _last(res)),
    ),
    Claim(
        "fig11", "Fig. 11 — response time (non-peak)", ("fig11",),
        "mT-Share_pro 2.5–4.5× slower than mT-Share; others as in peak",
        (Check("PRO is slower than MT at every fleet size",
               lambda res: _every(res, lambda x: res.value("mt-share-pro", x)
                                  > res.value("mt-share", x)), True),),
        (Check("PRO/MT is 1.25–9× at every fleet size",
               lambda res: _every(res, lambda x: _near(
                   res.value("mt-share-pro", x) / res.value("mt-share", x), 2.5, 4.5)), True),),
        lambda res: "PRO/MT {}× over the sweep".format(_span(
            [round(res.value("mt-share-pro", x) / res.value("mt-share", x), 2)
             for x in res.x_values])),
    ),
    Claim(
        "fig12", "Fig. 12 — detour time (non-peak)", ("fig12",),
        "mT-Share_pro largest detours, but ≤ 0.5 min above pGreedyDP",
        (_NO_DETOUR,
         Check("PRO detours at least MT's − 0.1 min at every fleet size",
               lambda res: _every(res, lambda x: res.value("mt-share-pro", x)
                                  >= res.value("mt-share", x) - 0.1), True),
         Check("PRO detours the most on average over the fleet sweep",
               lambda res: _mean(res, "mt-share-pro")
               >= max(_mean(res, s) for s in res.series), False)),
        (Check("PRO detours at most 0.5 min more than PG at every fleet size",
               lambda res: _every(res, lambda x: res.value("mt-share-pro", x)
                                  - res.value("pgreedydp", x) <= 0.5), False),),
        lambda res: _column(res, _last(res)) + " (min)",
    ),
    Claim(
        "fig13", "Fig. 13 — waiting time (non-peak)", ("fig13",),
        "larger than peak; decreases with fleet; mT-Share_pro largest",
        (_NO_NEGATIVE_WAIT,
         Check("every scheme waits no longer at the largest fleet than at the smallest",
               lambda res: all(v[-1] <= v[0] for v in res.series.values()), False),
         Check("PRO waits the longest on average over the fleet sweep",
               lambda res: _mean(res, "mt-share-pro")
               >= max(_mean(res, s) for s in res.series), False)),
        (),
        lambda res: _column(res, _last(res)) + " (min)",
    ),
    Claim(
        "table4", "Table IV — memory overhead", ("table4",),
        "mT-Share's indexes ~39% larger than T-Share's/pGreedyDP's; all negligible",
        (Check("MT's index is the largest (and non-empty)",
               lambda res: res.value("mt-share", "index_kb")
               > max(res.value(s, "index_kb") for s in _GRID)
               and res.value("mt-share", "index_kb") > 0, True),),
        (Check("MT's index is 19.5–78% larger than the larger baseline's",
               lambda res: _near(_gain(res.value("mt-share", "index_kb"),
                                       max(res.value(s, "index_kb") for s in _GRID)), 39),
               False),),
        lambda res: _column(res, "index_kb").replace("@index_kb", "KB"),
    ),
    Claim(
        "fig14a", "Fig. 14(a) — partition count κ", ("fig14a",),
        "served requests rise to a sweet spot (κ=150) then fall; ±6% effect overall",
        (Check("every κ serves requests",
               lambda res: all(v > 0 for v in res.series["mt-share"]), True),
         Check("the default κ serves at least as many as either extreme",
               lambda res: res.series["mt-share"][1] >= max(res.series["mt-share"]), True)),
        (Check("the κ effect, (max − min)/max served, is 3–12%",
               lambda res: _near(100.0 * (1 - min(res.series["mt-share"])
                                          / max(res.series["mt-share"])), 6), False),),
        lambda res: "κ {}: served {}, candidates {}".format(
            _joined(res.x_values), _joined(res.series["mt-share"]),
            _joined(res.series["avg candidates"], _n)),
    ),
    Claim(
        "fig14b", "Fig. 14(b) — taxi capacity", ("fig14b",),
        "capacity 6 serves ~12% more than capacity 2",
        (Check("served grows with capacity",
               lambda res: _rising(res.series["mt-share"]), True),),
        (Check("capacity 6 serves 6–24% more than capacity 2",
               lambda res: _near(_gain(res.value("mt-share", 6),
                                       res.value("mt-share", 2)), 12), False),),
        lambda res: f"cap {_joined(res.x_values)}: {_joined(res.series['mt-share'])}",
    ),
    Claim(
        "table5", "Table V — map-partitioning strategies", ("table5",),
        "bipartite beats grid by ≥6% served, 3–7% less detour",
        (Check("bipartite serves at least 93% of grid's count in both scenarios",
               lambda res: all(res.value(f"bipartite/{k}", "served")
                               >= 0.93 * res.value(f"grid/{k}", "served") for k in _KINDS),
               True),
         Check("bipartite serves at least as many as grid, and detours no more, in both "
               "scenarios",
               lambda res: all(res.value(f"bipartite/{k}", "served")
                               >= res.value(f"grid/{k}", "served")
                               and res.value(f"bipartite/{k}", "detour_min")
                               <= res.value(f"grid/{k}", "detour_min") for k in _KINDS),
               False)),
        (Check("bipartite serves ≥ 3% more and detours 1.5–14% less, both scenarios",
               lambda res: all(
                   _gain(res.value(f"bipartite/{k}", "served"),
                         res.value(f"grid/{k}", "served")) >= 3.0
                   and _near(-_gain(res.value(f"bipartite/{k}", "detour_min"),
                                    res.value(f"grid/{k}", "detour_min")), 3, 7)
                   for k in _KINDS), False),),
        lambda res: "; ".join(
            "{}: served {}/{}, detour {}/{}".format(
                k, *(_n(res.value(f"{m}/{k}", c))
                     for c in ("served", "detour_min") for m in ("grid", "bipartite")))
            for k in _KINDS) + " (grid/bipartite)",
    ),
    Claim(
        "fig15", "Fig. 15 — searching range γ", ("fig15",),
        "larger γ → more waiting and detour for all sharing schemes",
        (Check("NS never detours",
               lambda res: all(v == 0.0 for v in res.series["no-sharing detour"]), True),
         Check("every sharing scheme waits at least as long at the largest γ as at the "
               "smallest",
               lambda res: all(res.series[f"{s} waiting"][-1] >= res.series[f"{s} waiting"][0]
                               for s in _SHARING), True),
         Check("every sharing scheme detours at least as much at the largest γ as at the "
               "smallest",
               lambda res: all(res.series[f"{s} detour"][-1] >= res.series[f"{s} detour"][0]
                               for s in _SHARING), False)),
        (),
        lambda res: "; ".join(
            "{} wait {}→{}, detour {}→{}".format(
                _ABBR[s], *(_n(res.series[f"{s} {m}"][i])
                            for m in ("waiting", "detour") for i in (0, -1)))
            for s in _SHARING),
    ),
    Claim(
        "fig16", "Fig. 16 — routing schemes (basic vs probabilistic)", ("fig16",),
        "probabilistic routing brings +89/46/34% more offline requests for "
        "T-Share/pGreedyDP/mT-Share; overall +26/17/14%; mT-Share leads in both modes",
        (Check("probabilistic routing serves at least as many offline and total requests "
               "as basic, for every scheme",
               lambda res: all(res.value(f"{s}/prob", m) >= res.value(f"{s}/basic", m)
                               for s in _SHARING for m in ("offline", "total")), True),
         Check("MT serves the most in each routing mode",
               lambda res: all(res.value(f"mt-share/{mode}", "total")
                               >= max(res.value(f"{s}/{mode}", "total") for s in _SHARING)
                               for mode in ("basic", "prob")), True)),
        (Check("offline gains within 44.5–178 / 23–92 / 17–68% and overall gains within "
               "13–52 / 8.5–34 / 7–28% for TS/PG/MT",
               lambda res: all(
                   _near(_gain(res.value(f"{s}/prob", m), res.value(f"{s}/basic", m)), paper)
                   for m, papers in (("offline", (89, 46, 34)), ("total", (26, 17, 14)))
                   for s, paper in zip(_SHARING, papers)), False),),
        lambda res: "offline +{:.0f}/{:.0f}/{:.0f}%, overall +{:.0f}/{:.0f}/{:.0f}%".format(
            *(_gain(res.value(f"{s}/prob", m), res.value(f"{s}/basic", m))
              for m in ("offline", "total") for s in _SHARING)),
    ),
    Claim(
        "fig17", "Fig. 17 — ρ vs waiting time", ("fig17",),
        "waiting grows with ρ for all schemes",
        (Check("every scheme's waiting grows with ρ",
               lambda res: all(_rising(v) for v in res.series.values()), True),),
        (),
        lambda res: "; ".join(f"{_ABBR[s]} {_n(v[0])}→{_n(v[-1])}"
                              for s, v in res.series.items()) + " min",
    ),
    Claim(
        "fig18", "Fig. 18 — ρ vs detour and served (mT-Share)", ("fig18",),
        "both grow; served saturates beyond ρ = 1.3 (ρ 1.3→1.4: +4% served for +48% "
        "detour)",
        (Check("served and detour both grow with ρ",
               lambda res: _rising(res.series["served"])
               and _rising(res.series["detour_min"]), True),
         Check("served grows less from ρ 1.3 to 1.5 than from 1.1 to 1.3",
               lambda res: res.value("served", 1.5) - res.value("served", 1.3)
               < res.value("served", 1.3) - res.value("served", 1.1), False)),
        (Check("ρ 1.3→1.4 adds 2–8% served and 24–96% detour",
               lambda res: _near(_gain(res.value("served", 1.4), res.value("served", 1.3)), 4)
               and _near(_gain(res.value("detour_min", 1.4),
                               res.value("detour_min", 1.3)), 48), False),),
        lambda res: "served {}, detour {} min; ρ 1.3→1.4: +{:.0f}% served, +{:.0f}% "
        "detour".format(_joined(res.series["served"], sep="→"),
                        _joined(res.series["detour_min"], _n, "→"),
                        *(_gain(res.value(s, 1.4), res.value(s, 1.3))
                          for s in ("served", "detour_min"))),
    ),
    Claim(
        "fig19", "Fig. 19 — ρ vs payment benefits", ("fig19",),
        "at ρ = 1.3 passengers save 8.6%, drivers gain 7.8%; larger ρ helps passengers "
        "but erodes drivers' gain",
        (_PAYMENT_POSITIVE,
         Check("every passenger saving lies in [0, 100]%",
               lambda res: all(0.0 <= v <= 100.0 for v in res.series["passenger saving %"]),
               True),
         Check("the passenger saving grows with ρ and the driver gain falls beyond 1.3",
               lambda res: _rising(res.series["passenger saving %"])
               and res.value("driver gain %", 1.5) < res.value("driver gain %", 1.3), False)),
        (_PAYMENT_SIZE,),
        lambda res: "saving {}, gain {} (%, ρ 1.1→1.5)".format(
            _joined(res.series["passenger saving %"], _n, "→"),
            _joined(res.series["driver gain %"], _n, "→")),
    ),
    Claim(
        "fig20", "Fig. 20 — direction threshold θ (λ)", ("fig20",),
        "larger θ slightly raises served, greatly raises response time",
        (Check("θ = 75° serves at least 95% of what θ = 30° serves",
               lambda res: res.series["served"][-1] >= 0.95 * res.series["served"][0], True),
         Check("θ = 75° serves more and responds slower than θ = 30°",
               lambda res: res.series["served"][-1] > res.series["served"][0]
               and res.series["response_ms"][-1] > res.series["response_ms"][0], False)),
        (Check("θ = 75° responds at least 1.5× slower than θ = 30°",
               lambda res: res.series["response_ms"][-1]
               >= 1.5 * res.series["response_ms"][0], False),),
        lambda res: "served {}, response {} ms (θ 30→75°)".format(
            _joined(res.series["served"], sep="→"),
            _joined(res.series["response_ms"], _n, "→")),
    ),
    Claim(
        "fig21", "Fig. 21 — scalability with data volume", ("fig21",),
        "execution time linear in hours of data; response time flat",
        (Check("execution takes longer for the most hours than for the fewest",
               lambda res: res.series["execution_s"][-1] >= res.series["execution_s"][0],
               True),
         Check("response stays within max(10 × its minimum, minimum + 5 ms)",
               lambda res: max(res.series["response_ms"])
               <= max(10.0 * min(res.series["response_ms"]),
                      min(res.series["response_ms"]) + 5.0), True)),
        (Check("execution per hour at the most hours is within a factor of two of that "
               "at the fewest, and response stays within 2× its minimum",
               lambda res: _near(res.series["execution_s"][-1] / res.x_values[-1],
                                 res.series["execution_s"][0] / res.x_values[0])
               and max(res.series["response_ms"]) <= 2.0 * min(res.series["response_ms"]),
               False),),
        lambda res: "{}h: execution {} s, response {} ms".format(
            _joined(res.x_values, sep="→"), _joined(res.series["execution_s"], _n, "→"),
            _span(res.series["response_ms"])),
    ),
    Claim(
        "fig21v", "Fig. 21 companion — scalability with network size", ("fig21v",),
        "beyond the paper: grow |V| at a fixed workload past the O(V²) all-pairs table; "
        "per-request response stays in the tens of milliseconds",
        (Check(f"each network runs the backend auto picks: full up to {FULL_APSP_LIMIT} "
               "vertices, lazy above",
               lambda res: all(mode == ("full" if v <= FULL_APSP_LIMIT else "lazy")
                               for v, mode in zip(res.x_values, res.series["sp_mode"])),
               True),),
        (Check(f"the sweep crosses {FULL_APSP_LIMIT} vertices: its smallest network runs "
               "full, its largest lazy",
               lambda res: res.series["sp_mode"][0] == "full"
               and res.series["sp_mode"][-1] == "lazy", True),
         Check("mean response ≤ 50 ms at every size",
               lambda res: max(res.series["response_ms"]) <= 50.0, True)),
        lambda res: "; ".join(f"{v} V {mode}: {_n(s)} s, {_n(ms)} ms" for v, mode, s, ms in zip(
            res.x_values, res.series["sp_mode"], res.series["execution_s"],
            res.series["response_ms"])),
    ),
    Claim(
        "fig22w", "Fig. 22w — window-lap vs greedy mT-Share (peak)", ("fig22w",),
        "beyond the paper: a 30 s batch window buys one optimal assignment per window "
        "and serves about as many requests as greedy matching",
        (Check("window-lap serves requests at every fleet size",
               lambda res: all(v > 0 for v in res.series["window-lap served"]), True),),
        (),
        lambda res: "served {} vs greedy {} @{}".format(
            res.value("window-lap served", _last(res)),
            res.value("mt-share served", _last(res)), _last(res)),
    ),
)

ABLATIONS = (
    Claim(
        "adaptive_gamma", "Adaptive searching range (Eq. 2)", ("adaptive_gamma",),
        "design: the adaptive radius trims candidates without losing served requests",
        (Check("adaptive serves at least 95% of static γ's count",
               lambda res: res.value("adaptive (Eq. 2)", "served")
               >= 0.95 * res.value("static gamma", "served"), True),),
        (),
        lambda res: "served {}/{}, candidates {}/{} (adaptive/static)".format(
            *(res.value(p, m) for m in ("served", "candidates")
              for p in ("adaptive (Eq. 2)", "static gamma"))),
    ),
    Claim(
        "steering", "Probabilistic-routing steering strength", ("steering",),
        "future work of the paper: more steering never reduces offline service",
        (Check("every offline count is non-negative",
               lambda res: all(v >= 0 for v in res.series["served offline"]), True),
         Check("some steering serves at least as many offline requests as none",
               lambda res: max(res.series["served offline"])
               >= res.series["served offline"][0], True)),
        (),
        lambda res: "steering {} m: offline {}, detour {} min".format(
            _joined(res.x_values, lambda v: f"{v:g}"), _joined(res.series["served offline"]),
            _joined(res.series["detour_min"], _n)),
    ),
    Claim(
        "cruising", "Idle cruising (mT-Share_pro, non-peak)", ("cruising",),
        "design: idle demand-seeking cruising is the main source of the non-peak gains",
        (Check("cruising serves at least as many requests as no cruising",
               lambda res: res.value("cruising on", "served")
               >= res.value("cruising off", "served"), True),),
        (),
        lambda res: "served {}/{}, offline {}/{} (on/off)".format(
            *(res.value(p, m) for m in ("served", "served_offline")
              for p in ("cruising on", "cruising off"))),
    ),
    Claim(
        "redispatch", "Offline-encounter redispatch", ("redispatch",),
        "the server dispatches another taxi when the encountering one is full",
        (Check("redispatch serves at least as many offline requests as none",
               lambda res: res.value("redispatch on", "served_offline")
               >= res.value("redispatch off", "served_offline"), True),),
        (),
        lambda res: "offline {}/{} (on/off)".format(
            *(res.value(p, "served_offline") for p in ("redispatch on", "redispatch off"))),
    ),
    Claim(
        "traffic", "Congestion (the paper's traffic extension)", ("traffic",),
        "slower traffic serves fewer requests; the schemes' ordering is insensitive to "
        "congestion",
        (Check("speed factor 0.7 serves fewer than 1.0 for every scheme",
               lambda res: all(v[1] < v[0] for v in res.series.values()), True),),
        (),
        lambda res: "; ".join(f"{_ABBR[s]} {v[0]}→{v[1]}" for s, v in res.series.items()),
    ),
    Claim(
        "window_size", "Dispatch-window length W (window-lap, peak)", ("window_size",),
        "design: W = 0 reproduces greedy mT-Share exactly; wider windows batch more at "
        "up to W seconds of added delay",
        (Check("W = 0 serves exactly what greedy mT-Share serves",
               lambda res: res.value("served", 0) == res.value("served", "greedy"), True),
         Check("W = 0 rolls nothing over", lambda res: res.value("rolled", 0) == 0, True)),
        (),
        lambda res: "W {} s / greedy: served {}, waiting {} min".format(
            _joined(res.x_values[:-1]), _joined(res.series["served"]),
            _joined(res.series["waiting_min"], _n)),
    ),
)

CLAIMS = HEADLINE + FIGURES + ABLATIONS


# ----------------------------------------------------------------------
# running the claims
# ----------------------------------------------------------------------
def _needed() -> list[str]:
    """Every experiment a claim reads, in registry order."""
    read = {e for c in CLAIMS for e in c.experiments}
    return [name for name in REGISTRY if name in read]


@dataclass
class ClaimsRun:
    """Every claimed experiment's result on every seed, at one scale."""

    scale: str
    results: dict[int, dict[str, ExperimentResult]]

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "seeds": list(self.results),
            "results": {str(seed): {name: dataclasses.asdict(res) for name, res in per.items()}
                        for seed, per in self.results.items()},
            "verdicts": {c.key: verdict(c, self.results) for c in CLAIMS},
        }

    def print(self) -> None:
        print(json.dumps(self.to_json(), indent=1, ensure_ascii=False))


def measure_claims(scale: BenchScale | None = None) -> ClaimsRun | None:
    """Run every experiment the claims read on each of :data:`CLAIM_SEEDS`.

    The seed replaces both scenario specs' ``seed``.  In a planning pass
    the experiments that are not plannable are left out, so the pass
    over this function is itself free: its keys are every seed's
    simulations, and ``repro experiment claims`` fans them out over the
    workers before running the rest here.
    """
    scale = scale or bench_scale()
    results = {}
    for seed in CLAIM_SEEDS:
        seeded = dataclasses.replace(scale, peak=dataclasses.replace(scale.peak, seed=seed),
                                     nonpeak=dataclasses.replace(scale.nonpeak, seed=seed))
        results[seed] = {name: REGISTRY[name].fn(seeded) for name in _needed()
                         if REGISTRY[name].plannable or not planning()}
    return None if planning() else ClaimsRun(scale.name, results)


#: Every name ``repro experiment`` takes.
REGISTRY = {**ALL_EXPERIMENTS, **ALL_ABLATIONS, "claims": Experiment(measure_claims, plannable=True)}


# ----------------------------------------------------------------------
# rendering EXPERIMENTS.md's verdict block
# ----------------------------------------------------------------------
BEGIN = "<!-- claims:begin — rendered from EXPERIMENTS.json by repro.experiments.claims -->"
END = "<!-- claims:end -->"


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def render(doc: dict) -> str:
    """The verdict block for ``doc`` (the JSON ``repro experiment claims``
    prints): verdicts are recomputed from its results, not read."""
    per_seed = {int(seed): {name: ExperimentResult(**res) for name, res in per.items()}
                for seed, per in doc["results"].items()}
    seeds = list(per_seed)
    lines = [
        f"Verdicts: {PASS} every check holds on every seed, {PARTIAL} the direction "
        f"checks hold on every seed and a magnitude check does not, {FAIL} a direction "
        "check fails on some seed.  **D** is a direction check (a sign the paper states: "
        "who beats whom, what rises or falls), **M** a magnitude check (the paper's "
        "number, within a factor of two); the marks after each are its result per seed.",
        "",
        f"Scale `{doc['scale']}`, scenario seeds {', '.join(map(str, seeds))}.",
    ]
    for heading, group in (("Headline claims", HEADLINE), ("Per-experiment verdicts", FIGURES),
                           ("Ablations (beyond the paper's sweeps)", ABLATIONS)):
        lines += ["", f"### {heading}", "",
                  "| Claim | Paper | Checks | " + " | ".join(f"Seed {s}" for s in seeds)
                  + " | Verdict |",
                  "|---" * (len(seeds) + 4) + "|"]
        for claim in group:
            read = {s: claim.read(per_seed[s]) for s in seeds}
            checks = "<br>".join(
                f"**{kind}** {c.text} " + "".join("✓" if c.holds(*read[s]) else "✗"
                                                  for s in seeds)
                for kind, kind_checks in (("D", claim.direction), ("M", claim.magnitude))
                for c in kind_checks)
            measured = " | ".join(_cell(claim.measured(*read[s])) for s in seeds)
            lines.append(f"| {claim.title} | {_cell(claim.paper)} | {_cell(checks)} | "
                         f"{measured} | {verdict(claim, per_seed)} |")
    return "\n".join(lines)


def splice(markdown: str, block: str) -> str:
    """``markdown`` with the text between :data:`BEGIN` and :data:`END`
    replaced by ``block``."""
    head, rest = markdown.split(BEGIN, 1)
    _old, tail = rest.split(END, 1)
    return f"{head}{BEGIN}\n{block}\n{END}{tail}"


if __name__ == "__main__":  # rewrite EXPERIMENTS.md's block from EXPERIMENTS.json
    with open("EXPERIMENTS.json", encoding="utf-8") as fh:
        rendered = render(json.load(fh))
    with open("EXPERIMENTS.md", encoding="utf-8") as fh:
        text = splice(fh.read(), rendered)
    with open("EXPERIMENTS.md", "w", encoding="utf-8") as fh:
        fh.write(text)
