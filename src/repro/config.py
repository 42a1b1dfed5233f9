"""The evaluation parameters a caller varies, with the paper's defaults.

A frozen dataclass carries the seven parameters that some sweep,
ablation or CLI flag sets to more than one value; experiments create
variants with :meth:`SystemConfig.replace`.  Every other Table II value
has one value in use and lives, as a default or a constant, with the
code that uses it (DESIGN.md, "Table II parameter -> where it is set").
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, TypeVar

_SpecT = TypeVar("_SpecT")

#: Direction threshold ``lambda = cos 45 deg`` (Table II), shared by
#: mobility clustering, partition filtering and probabilistic routing.
DEFAULT_LAMBDA = 0.707


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """The swept evaluation parameters with the paper's defaults.

    Attributes
    ----------
    num_partitions:
        ``kappa``, the number of map partitions (paper default 150 for
        a 214k-vertex network; scale with network size).
    search_range_m:
        Static candidate-search radius ``gamma`` (paper default
        2.5 km): the baselines' searching disc, and mT-Share's when
        ``mtshare_adaptive_gamma`` is off.
    lam:
        Direction threshold ``lambda = cos(theta)`` (default cos 45).
    mtshare_adaptive_gamma:
        mT-Share-specific: its searching range follows Eq. 2
        (``gamma = speed * Delta_t``) instead of the static range, which
        is Section IV-C1's design and the source of the paper's Fig. 1
        "taxi t3" effect.  Disable to force the static ``gamma`` on
        mT-Share too (the Fig. 15 sweep does this for all schemes).
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
    dispatch_window_s:
        Batch-window length ``W`` of the ``window-lap`` scheme: online
        requests released inside the same ``W``-second window are
        matched together by one global linear assignment per window
        tick.  ``0`` degenerates to single-request windows, which
        reproduce the greedy per-request decisions exactly.  Ignored by
        the greedy schemes.
    """

    num_partitions: int = 150
    search_range_m: float = 2500.0
    lam: float = DEFAULT_LAMBDA
    mtshare_adaptive_gamma: bool = True
    prob_steering_m: float = 120.0
    enable_cruising: bool = True
    dispatch_window_s: float = 30.0

    def __post_init__(self) -> None:
        # An infinite window never ticks.
        require_finite(self)
        if self.search_range_m <= 0:
            raise ValueError("search_range_m must be positive")
        if not -1.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be a cosine in [-1, 1]")
        if self.dispatch_window_s < 0:
            raise ValueError("dispatch_window_s must be non-negative")

    def replace(self, **changes) -> "SystemConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


def require_finite(spec: Any) -> None:
    """Reject a NaN or infinite value in any float field of dataclass ``spec``.

    Called first in a spec's ``__post_init__``: NaN slips past every
    ordered comparison the range checks after it make.
    """
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


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
