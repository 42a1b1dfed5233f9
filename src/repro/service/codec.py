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


#: What ``json`` decodes a JSON number to.
_NUMBER = (int, float)
_JSON_TYPE_NAMES = {int: "integer", _NUMBER: "number", bool: "boolean"}


def _wire_value(name: str, value: Any, kind: type | tuple[type, ...]) -> Any:
    """``value`` when it decoded from a JSON value of ``kind``, else a
    :class:`~repro.demand.request.RequestError` naming the field."""
    # ``bool`` is an ``int`` to Python, but not a number on the wire.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise RequestError(f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def request_from_dict(
    payload: dict[str, Any], num_vertices: int | None = None
) -> RideRequest:
    """Parse one wire dict (value validation is RideRequest's own).

    Each field must carry its JSON type: integers for ids, vertices and
    the passenger count, numbers for times and costs, a boolean for
    ``offline`` — ``3.5``, ``"12"`` or ``"false"`` are refused, never
    coerced.  With ``num_vertices``, an origin or destination outside
    the network's ``0 .. num_vertices - 1`` is refused too: a request
    enters the service here, and past this point a vertex id indexes
    arrays.  Raises ``KeyError`` on missing required fields and
    :class:`~repro.demand.request.RequestError` on invalid values —
    callers surface both as client errors, not crashes.
    """
    request = RideRequest(
        request_id=_wire_value("request_id", payload["request_id"], int),
        release_time=float(_wire_value("release_time", payload["release_time"], _NUMBER)),
        origin=_wire_value("origin", payload["origin"], int),
        destination=_wire_value("destination", payload["destination"], int),
        deadline=float(_wire_value("deadline", payload["deadline"], _NUMBER)),
        direct_cost=float(_wire_value("direct_cost", payload["direct_cost"], _NUMBER)),
        num_passengers=_wire_value("num_passengers", payload.get("num_passengers", 1), int),
        offline=_wire_value("offline", payload.get("offline", False), bool),
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
