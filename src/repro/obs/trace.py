"""Structured JSONL event tracing for dispatch observability.

When enabled (``python -m repro simulate --trace events.jsonl``), every
stage exit and every simulator-level event (dispatches, offline
encounters) is appended to a JSON-Lines file: one self-describing JSON
object per line, cheap to grep, stream and load into pandas.  Writing is
buffered so tracing stays off the dispatch critical path as much as a
synchronous file can be.
"""

from __future__ import annotations

import json
from typing import IO

__all__ = ["JsonlTraceWriter"]

#: Events :class:`JsonlTraceWriter` buffers before a physical write.
BUFFER_LINES = 1024


class JsonlTraceWriter:
    """Buffered JSON-Lines writer for instrumentation events.

    Parameters
    ----------
    path:
        Output file, truncated on open.
    """

    def __init__(self, path: str) -> None:
        self._path = str(path)
        self._buf: list[str] = []
        self._fh: IO[str] | None = open(self._path, "w", encoding="utf-8")
        self.events_written = 0

    @property
    def path(self) -> str:
        """The trace file path."""
        return self._path

    def emit(self, payload: dict) -> None:
        """Queue one event (a JSON-serialisable dict)."""
        if self._fh is None:
            raise ValueError(f"trace writer for {self._path!r} is closed")
        self._buf.append(json.dumps(payload, separators=(",", ":")))
        self.events_written += 1
        if len(self._buf) >= BUFFER_LINES:
            self.flush()

    def flush(self) -> None:
        """Write buffered events to disk."""
        if self._buf and self._fh is not None:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
