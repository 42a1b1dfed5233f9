"""Wire codec for requests and decisions (JSON object per line).

The replay file format is one JSON object per ride request, fields
mirroring :class:`~repro.demand.request.RideRequest`; unknown keys are
ignored so traces can carry annotations.  Decisions serialise to flat
dicts for the decision stream (``repro replay --decisions`` and the
HTTP endpoint respond with the same shape).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..demand.request import RequestError, RideRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .service import DecisionRecord

_REQUEST_FIELDS = (
    "request_id",
    "release_time",
    "origin",
    "destination",
    "deadline",
    "direct_cost",
    "num_passengers",
    "offline",
)


def request_to_dict(request: RideRequest) -> dict[str, Any]:
    """Serialise one request to its wire dict."""
    return {name: getattr(request, name) for name in _REQUEST_FIELDS}


def request_from_dict(
    payload: dict[str, Any], num_vertices: int | None = None
) -> RideRequest:
    """Parse one wire dict (field validation is RideRequest's own).

    With ``num_vertices``, an origin or destination outside the
    network's ``0 .. num_vertices - 1`` is refused too: a request
    enters the service here, and past this point a vertex id indexes
    arrays.  Raises ``KeyError`` on missing required fields and
    :class:`~repro.demand.request.RequestError` on invalid values —
    callers surface both as client errors, not crashes.
    """
    request = RideRequest(
        request_id=int(payload["request_id"]),
        release_time=float(payload["release_time"]),
        origin=int(payload["origin"]),
        destination=int(payload["destination"]),
        deadline=float(payload["deadline"]),
        direct_cost=float(payload["direct_cost"]),
        num_passengers=int(payload.get("num_passengers", 1)),
        offline=bool(payload.get("offline", False)),
    )
    if num_vertices is not None:
        for vertex in (request.origin, request.destination):
            if not 0 <= vertex < num_vertices:
                raise RequestError(
                    f"vertex {vertex} is not in the network (0 .. {num_vertices - 1})"
                )
    return request


def decision_to_dict(decision: "DecisionRecord") -> dict[str, Any]:
    """Serialise one decision record to its wire dict."""
    return {
        "request_id": decision.request_id,
        "time": decision.time,
        "status": decision.status,
        "kind": decision.kind,
        "taxi_id": decision.taxi_id,
        "elapsed_ms": decision.elapsed_ms,
    }


__all__ = ["decision_to_dict", "request_from_dict", "request_to_dict"]
