"""Minimal HTTP endpoint over :class:`DispatchService` (stdlib only).

One process, one simulator run, many clients::

    POST /requests   {request json}  -> admission outcome + decisions fired
    GET  /metrics                    -> current metrics summary
    GET  /healthz                    -> liveness + queue depth
    POST /finish                     -> drain, close the run, final summary

The simulator is single-threaded by design (determinism), so
:class:`ServiceState` serialises everything behind one lock that only
its own methods take; concurrency here means "many clients", not "many
dispatches at once".  Decision records fired
by a submission's pump are returned in that submission's response —
they may belong to earlier queued requests, which is the nature of a
stream.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..demand.request import RideRequest
from .codec import decision_to_dict, request_from_dict
from .service import DecisionRecord, DispatchService


#: Largest ``POST /requests`` body the endpoint will read.  One wire
#: request is ~200 bytes; anything near this is not a ride request.
MAX_BODY_BYTES = 64 * 1024

#: ``(HTTP status, JSON payload)`` — what every operation hands the handler.
Reply = tuple[int, dict[str, Any]]


class ServiceState:
    """The dispatch service, its decision buffer and the one lock.

    The four operations below are the only way in: each takes the lock
    itself and returns a finished :data:`Reply`, so handler threads
    cannot touch the service unlocked and never hold the lock while
    writing to a socket.
    """

    def __init__(self, service: DispatchService) -> None:
        self._service = service
        #: Vertex ids a posted request may name (``request_from_dict``).
        self.num_vertices = service.sim.scheme.network.num_vertices
        self._lock = threading.Lock()
        self._buffer: list[DecisionRecord] = []
        self._finished_summary: dict[str, Any] | None = None
        service.set_sink(self._buffer.append)  # the server owns the stream

    def _drain(self) -> list[dict[str, Any]]:
        fired = [decision_to_dict(d) for d in self._buffer]
        self._buffer.clear()
        return fired

    def health(self) -> Reply:
        """``GET /healthz``: liveness + queue depth."""
        with self._lock:
            return 200, {
                "ok": True,
                "finished": self._finished_summary is not None,
                "pending": self._service.pending,
                "submitted": self._service.submitted,
            }

    def metrics(self) -> Reply:
        """``GET /metrics``: the current (or final) metrics summary."""
        with self._lock:
            return 200, self._finished_summary or self._service.sim.metrics.summary()

    def submit(self, request: RideRequest) -> Reply:
        """``POST /requests``: screen one request, pump, return what fired."""
        with self._lock:
            if self._finished_summary is not None:
                return 409, {"error": "run already finished"}
            outcome = self._service.submit(request)
            if outcome.accepted:
                self._service.pump()
            return (
                200 if outcome.accepted else 429 if outcome.reason == "backpressure" else 409,
                {
                    "accepted": outcome.accepted,
                    "reason": outcome.reason,
                    "clamped": outcome.clamped,
                    "decisions": self._drain(),
                },
            )

    def finish(self) -> Reply:
        """``POST /finish``: drain and close the run (idempotent)."""
        with self._lock:
            if self._finished_summary is None:
                self._finished_summary = self._service.finish().summary()
            return 200, {"summary": self._finished_summary, "decisions": self._drain()}


def _make_handler(state: ServiceState) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        """Parse, call one :class:`ServiceState` operation, reply."""

        protocol_version = "HTTP/1.1"

        def log_message(self, *args: Any) -> None:  # silence stderr
            pass

        def _reply(self, code: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path == "/healthz":
                self._reply(*state.health())
            elif self.path == "/metrics":
                self._reply(*state.metrics())
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})

        def do_POST(self) -> None:
            if self.path == "/requests":
                self._reply(*self._post_request())
            elif self.path == "/finish":
                self._reply(*state.finish())
            else:
                self._reply(404, {"error": f"no such path: {self.path}"})

        def _post_request(self) -> Reply:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # The body stays unread, so the connection cannot be
                # reused: its bytes would parse as the next request.
                self.close_connection = True
                if length < 0:
                    return 400, {"error": "invalid Content-Length"}
                return 413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
            try:
                payload = json.loads(self.rfile.read(length))
                if not isinstance(payload, dict):
                    raise TypeError("request body must be a JSON object")
                request = request_from_dict(payload, state.num_vertices)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                # ValueError covers JSONDecodeError, bad UTF-8 and
                # RequestError (NaN and Infinity parse as JSON numbers
                # and fail here); a null field is int()/float()'s
                # TypeError, an infinite vertex id int()'s OverflowError.
                return 400, {"error": str(exc)}
            return state.submit(request)

    return Handler


def make_server(
    service: DispatchService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingHTTPServer, ServiceState]:
    """Build (not start) an HTTP server over one dispatch service.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  Call ``serve_forever()`` to run.
    """
    state = ServiceState(service)
    server = ThreadingHTTPServer((host, port), _make_handler(state))
    return server, state


__all__ = ["ServiceState", "make_server"]
