"""Geometric primitives shared by the road-network and clustering code.

Every coordinate lives on a local planar projection in metres, which
makes distance computations exact, cheap and easy to reason about.
This module provides the cosine similarity that the mobility-clustering
machinery builds on, and its table form for the landmark direction
tests.
"""

from __future__ import annotations

import math

import numpy as np


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


def cosine_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_similarity(*a[i], *b[j])`` for every row pair, bit for bit.

    ``a`` and ``b`` are ``(n, 2)`` and ``(m, 2)`` arrays of vectors.
    Each step is the scalar's IEEE operation, elementwise; the norms
    are the scalar's own ``math.hypot`` calls, one per row, because
    ``np.hypot`` can differ from it in the last place.
    """
    ax, ay, an, a_zero = _rescaled(a)
    bx, by, bn, b_zero = _rescaled(b)
    with np.errstate(invalid="ignore"):
        value = (ax[:, None] * bx + ay[:, None] * by) / (an[:, None] * bn)
    value = np.maximum(-1.0, np.minimum(1.0, value))
    # A zero vector is aligned with everything (0 / 0 above).
    value[a_zero[:, None] | b_zero] = 1.0
    return value


def _rescaled(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row divided by its largest component, its norm, and whether
    it is the zero vector (whose components and norm are NaN)."""
    x, y = vectors[:, 0], vectors[:, 1]
    scale = np.maximum(np.abs(x), np.abs(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = x / scale, y / scale
    norm = np.array([math.hypot(*xy) for xy in zip(x.tolist(), y.tolist())], dtype=np.float64)
    return x, y, norm, scale == 0.0
