"""Request sources for the dispatch service.

Three ways requests reach the service: replayed from a JSONL trace
(:func:`jsonl_requests`), generated on the fly for soak/throughput runs
(:func:`synthetic_requests`), or posted over HTTP
(:mod:`repro.service.http`).  Sources are plain iterators of
:class:`~repro.demand.request.RideRequest`, so a batch workload list
works anywhere a source does.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from ..demand.request import RideRequest
from .codec import request_from_dict

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..network.shortest_path import ShortestPathEngine


def jsonl_requests(path: str, num_vertices: int | None = None) -> Iterator[RideRequest]:
    """Yield requests from a JSONL trace file, one object per line.

    Blank lines are skipped; malformed lines — with ``num_vertices``,
    also a vertex outside the network (:func:`request_from_dict`) —
    raise with the line number so a truncated or hostile trace fails
    loudly instead of silently shortening the workload.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield request_from_dict(json.loads(line), num_vertices)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad request record: {exc}") from exc


def synthetic_requests(
    engine: "ShortestPathEngine",
    count: int,
    rate_per_s: float = 2.0,
    rho: float = 1.5,
    seed: int = 0,
    start_id: int = 0,
) -> Iterator[RideRequest]:
    """Generate ``count`` online requests lazily (O(1) memory).

    Poisson arrivals at ``rate_per_s``, origin/destination uniform over
    the network's vertices (re-drawn until distinct and reachable),
    deadlines from the flexible factor ``rho`` (Eq. 9).  Deterministic
    in ``seed``; the stream is sorted by construction, so it exercises
    the service's steady-state path rather than its admission edge
    cases.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    rng = np.random.default_rng(seed)
    num_vertices = engine.network.num_vertices
    t = 0.0
    produced = 0
    while produced < count:
        t += float(rng.exponential(1.0 / rate_per_s))
        origin = int(rng.integers(num_vertices))
        destination = int(rng.integers(num_vertices))
        if origin == destination:
            continue
        cost = engine.cost(origin, destination)
        if not np.isfinite(cost) or cost <= 0.0:
            continue
        yield RideRequest.from_flexible_factor(
            request_id=start_id + produced,
            release_time=t,
            origin=origin,
            destination=destination,
            direct_cost=float(cost),
            rho=rho,
        )
        produced += 1


__all__ = ["jsonl_requests", "synthetic_requests"]
