"""Geometric primitives shared by the road-network and clustering code.

Every coordinate lives on a local planar projection in metres, which
makes distance computations exact, cheap and easy to reason about.
This module provides the planar point type and the cosine similarity
that the mobility-clustering machinery builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Point:
    """A point on the local planar projection, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def cosine_similarity(ax: float, ay: float, bx: float, by: float) -> float:
    """Cosine of the angle between vectors ``(ax, ay)`` and ``(bx, by)``.

    Degenerate (zero-length) vectors are treated as perfectly aligned
    with everything: a request whose origin equals its destination
    imposes no directional constraint, so it should never be rejected by
    the direction test.
    """
    # Rescale each vector by its largest component first: denormal
    # inputs otherwise underflow in the norm computations and produce
    # values outside [-1, 1].
    scale_a = max(abs(ax), abs(ay))
    scale_b = max(abs(bx), abs(by))
    if scale_a == 0.0 or scale_b == 0.0:
        return 1.0
    ax, ay = ax / scale_a, ay / scale_a
    bx, by = bx / scale_b, by / scale_b
    norm_a = math.hypot(ax, ay)
    norm_b = math.hypot(bx, by)
    value = (ax * bx + ay * by) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))
