"""System-wide parameter set, mirroring Table II of the paper.

A single frozen dataclass carries every tunable the evaluation sweeps,
with the paper's default values.  Experiments create variants with
:meth:`SystemConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, TypeVar

_SpecT = TypeVar("_SpecT")

#: Metres per second for 15 km/h, the constant taxi speed of Section V-A4.
DEFAULT_SPEED_MPS = 15_000.0 / 3600.0


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """All evaluation parameters with the paper's defaults (Table II).

    Attributes
    ----------
    num_taxis:
        Fleet size (paper sweeps 500-3000, default 2000).
    capacity:
        Seats per taxi (paper default 3).
    search_range_m:
        Candidate-search radius ``gamma`` (paper default 2.5 km).  When
        ``adaptive_gamma`` is set, the radius is instead derived from
        each request's waiting budget (Eq. 2), capped at this value.
    rho:
        Flexible factor fixing delivery deadlines (Eq. 9, default 1.3).
    num_partitions:
        ``kappa``, the number of map partitions (paper default 150 for
        a 214k-vertex network; scale with network size).
    num_transition_clusters:
        ``k_t`` of the bipartite partitioning (paper default 20).
    lam:
        Direction threshold ``lambda = cos(theta)`` (default cos 45).
    epsilon:
        Travel-cost slack of the partition-filter rule (default 1.0).
    beta, eta:
        Payment-model parameters (defaults 0.8 and 0.01).
    index_horizon_s:
        ``T_mp``: how far ahead routes are indexed (default 1 h).
    speed_mps:
        Constant taxi speed.
    adaptive_gamma:
        Derive ``gamma`` per request from its waiting budget (applies
        to every scheme when set).
    mtshare_adaptive_gamma:
        mT-Share-specific: its searching range follows Eq. 2
        (``gamma = speed * Delta_t``) instead of the static range, which
        is Section IV-C1's design and the source of the paper's Fig. 1
        "taxi t3" effect.  Disable to force the static ``gamma`` on
        mT-Share too (the Fig. 15 sweep does this for all schemes).
    baseline_grid_cell_m:
        Grid-cell side of the baselines' (T-Share, pGreedyDP) spatial
        index.  Their range queries operate at whole-cell granularity,
        which is the "partial trip information" limitation the paper
        attacks; 0 (the default) means "half the searching range".
    probabilistic_idle_seats:
        A taxi switches to probabilistic routing when at least this
        fraction of its capacity is idle (paper: half) and the scenario
        enables the mode.
    max_probabilistic_attempts:
        Retry cap of Algorithm 4 (paper: 5).
    match_planning_cutoff:
        Algorithm 1 plans concrete routes for candidates lazily, in
        ascending order of their O(1)-estimated detour, and keeps the
        minimum *actual* route detour.  Because a planned route can
        never beat its own shortest-path estimate, planning stops as
        soon as the next estimate cannot beat the incumbent; this
        cutoff additionally bounds the number of successfully planned
        candidates examined after a winner exists, capping worst-case
        planning work per dispatch.  With a full all-pairs cache basic
        routes equal their estimates and the loop exits after one plan,
        so the cutoff only matters for probabilistic or lazily-routed
        configurations.
    prob_steering_m:
        Probability-vs-detour trade-off of probabilistic routing: the
        maximum per-vertex preference (expressed as metres of travel)
        granted to high-probability vertices.  0 disables fine-grained
        steering entirely.  The paper defers this trade-off to future
        work; the ablation benchmark sweeps it.
    enable_cruising:
        Whether idle taxis in probabilistic mode cruise towards
        historically hot pick-up areas (the non-peak premise that taxis
        without online assignments go looking for street hails).
    use_demand_prediction:
        Target cruising with the hour-aware
        :class:`~repro.demand.prediction.DemandPredictor` blended into
        the overall demand shares.  Off by default: with short mined
        histories the hourly estimates are noisier than the stable
        overall shares (see the prediction module's docs).
    dispatch_window_s:
        Batch-window length ``W`` of the ``window-lap`` scheme: online
        requests released inside the same ``W``-second window are
        matched together by one global linear assignment per window
        tick.  ``0`` degenerates to single-request windows, which
        reproduce the greedy per-request decisions exactly.  Ignored by
        the greedy schemes.
    """

    num_taxis: int = 2000
    capacity: int = 3
    search_range_m: float = 2500.0
    rho: float = 1.3
    num_partitions: int = 150
    num_transition_clusters: int = 20
    lam: float = 0.707
    epsilon: float = 1.0
    beta: float = 0.8
    eta: float = 0.01
    index_horizon_s: float = 3600.0
    speed_mps: float = DEFAULT_SPEED_MPS
    adaptive_gamma: bool = False
    mtshare_adaptive_gamma: bool = True
    baseline_grid_cell_m: float = 0.0
    probabilistic_idle_seats: float = 0.5
    max_probabilistic_attempts: int = 5
    match_planning_cutoff: int = 4
    prob_steering_m: float = 120.0
    enable_cruising: bool = True
    use_demand_prediction: bool = False
    dispatch_window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.num_taxis < 1:
            raise ValueError("num_taxis must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.search_range_m <= 0:
            raise ValueError("search_range_m must be positive")
        if self.rho < 1.0:
            raise ValueError("rho must be >= 1")
        if not -1.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be a cosine in [-1, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.match_planning_cutoff < 1:
            raise ValueError("match_planning_cutoff must be >= 1")
        if self.dispatch_window_s < 0:
            raise ValueError("dispatch_window_s must be non-negative")

    def replace(self, **changes) -> "SystemConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def gamma_for_wait(self, max_wait_s: float) -> float:
        """Search radius from a request's waiting budget (Eq. 2).

        ``gamma = speed * Delta_t``, optionally capped by the static
        ``search_range_m`` when ``adaptive_gamma`` is off (the paper's
        default fixes ``gamma = 2.5 km`` which equals a 10-minute wait
        at 15 km/h).
        """
        if not self.adaptive_gamma:
            return self.search_range_m
        return max(0.0, max_wait_s) * self.speed_mps

    @property
    def grid_cell_m(self) -> float:
        """Effective baseline grid-cell size (defaults to ``gamma / 2``)."""
        if self.baseline_grid_cell_m > 0:
            return self.baseline_grid_cell_m
        return self.search_range_m / 2.0


# ----------------------------------------------------------------------
# the ``key=value[,key=value...]`` grammar of ``--faults`` / ``--rebalance``
# ----------------------------------------------------------------------
def parse_spec(cls: type[_SpecT], text: str) -> _SpecT:
    """Build the spec dataclass ``cls`` from ``key=value[,key=value...]``.

    Keys are exactly ``cls``'s fields and each value is parsed with the
    type of its field's default (``int`` or ``float``); fields not
    named keep their defaults, so an empty string yields ``cls()``.
    Entries without ``=``, unknown keys, repeated keys and unparsable
    values raise ``ValueError`` (as does ``cls``'s own validation).
    """
    parsers = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    values: dict[str, Any] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        key, sep, raw = (piece.strip() for piece in part.partition("="))
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        if key not in parsers:
            raise ValueError(f"unknown key {key!r}; expected one of {', '.join(sorted(parsers))}")
        if key in values:
            raise ValueError(f"key {key!r} given more than once")
        try:
            values[key] = parsers[key](raw)
        except ValueError:
            raise ValueError(f"bad value for {key!r}: {raw!r}") from None
    return cls(**values)


def format_spec(spec: Any) -> str:
    """``spec``'s non-default fields as ``key=value,...`` — the inverse
    of :func:`parse_spec` (floats print their shortest round-trip form)."""
    default = type(spec)()
    return ",".join(
        f"{f.name}={getattr(spec, f.name)!r}"
        for f in dataclasses.fields(spec)
        if getattr(spec, f.name) != getattr(default, f.name)
    )
