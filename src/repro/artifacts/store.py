"""Content-addressed on-disk store for scenario preprocessing artifacts.

The paper treats index construction — all-pairs shortest paths, the
bipartite map partitioning, the landmark graph, transition mining —
as an *offline* phase feeding the online dispatcher.  This module gives
that phase a home on disk: every expensive preprocessing product is
persisted once, keyed by a deterministic hash of the *spec that
generates it* (generator parameters, seeds, method parameters and a
code schema version), so any later process — including every worker of
a parallel sweep — loads in milliseconds what it would otherwise
recompute in seconds.

Layout (one directory per artifact)::

    <root>/<kind>/<key[:2]>/<key>/
        meta.json          # the generating spec + schema version
        <name>.npy         # one file per named array

Arrays are loaded with ``numpy``'s ``mmap_mode="r"`` by default, so the
big matrices (the full APSP distance/predecessor tables) are mapped
zero-copy: concurrent sweep workers share the page cache instead of
each materialising a private copy.

The root directory defaults to ``~/.cache/repro-mtshare`` and is
overridden by the ``REPRO_ARTIFACT_DIR`` environment variable; setting
it to ``off`` (or ``none``/``0``) disables the store entirely, in which
case every consumer silently falls back to in-process computation.

Writes are atomic (temp directory + ``os.replace``), so concurrent
processes racing to persist the same artifact are safe: both compute,
one rename wins, and readers only ever see complete artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

#: Bump when the on-disk format or the semantics of any persisted
#: artifact change; it participates in every key, so a version bump
#: cleanly invalidates all previously stored artifacts.
SCHEMA_VERSION = 1

#: Environment variable overriding the store location (``off`` disables).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Values of :data:`ARTIFACT_DIR_ENV` that disable the store.
_DISABLED_VALUES = frozenset({"off", "none", "disabled", "0"})


def default_root() -> str:
    """The default store location (``~/.cache/repro-mtshare``)."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-mtshare")


def _canonical(obj: Any) -> Any:
    """Normalise a spec value into deterministic JSON-compatible types."""
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (set, frozenset)):
        return [_canonical(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    raise TypeError(f"unsupported spec value of type {type(obj).__name__}: {obj!r}")


def canonical_json(spec: Mapping) -> str:
    """Deterministic JSON encoding of a spec mapping (sorted keys)."""
    return json.dumps(_canonical(spec), sort_keys=True, separators=(",", ":"))


@dataclass
class Artifact:
    """One loaded artifact: named arrays plus its meta mapping."""

    kind: str
    key: str
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


class ArtifactStore:
    """A content-addressed artifact directory.

    Per-process counters (``loads``/``misses``/``builds`` per kind)
    feed the observability layer and the warm-store acceptance checks:
    a process that found everything it needed reports zero ``builds``.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._stats: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def _kind_stats(self, kind: str) -> dict[str, int]:
        st = self._stats.get(kind)
        if st is None:
            st = self._stats[kind] = {
                "loads": 0, "misses": 0, "builds": 0, "mmap_loads": 0,
            }
        return st

    def key_of(self, kind: str, spec: Mapping) -> str:
        """Deterministic key: sha256 over kind + schema version + spec."""
        payload = canonical_json({
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "spec": spec,
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def _dir_of(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / key

    def contains(self, kind: str, key: str) -> bool:
        """Whether a complete artifact exists for ``(kind, key)``."""
        return (self._dir_of(kind, key) / "meta.json").is_file()

    # ------------------------------------------------------------------
    def load(self, kind: str, key: str, mmap: bool = True) -> Artifact | None:
        """Load an artifact, or ``None`` on miss (or corruption).

        With ``mmap=True`` (default) arrays come back memory-mapped
        read-only; treat them as immutable (copy before mutating).
        """
        path = self._dir_of(kind, key)
        st = self._kind_stats(kind)
        meta_path = path / "meta.json"
        if not meta_path.is_file():
            st["misses"] += 1
            return None
        try:
            meta = json.loads(meta_path.read_text())
            arrays: dict[str, np.ndarray] = {}
            for name in meta.get("__arrays__", ()):
                arr = np.load(path / f"{name}.npy", mmap_mode="r" if mmap else None)
                arrays[name] = arr
        except (OSError, ValueError, json.JSONDecodeError):
            # A torn or stale-format artifact reads as a miss; the
            # caller rebuilds and the save overwrites it.
            st["misses"] += 1
            return None
        st["loads"] += 1
        if mmap:
            st["mmap_loads"] += 1
        meta = {k: v for k, v in meta.items() if k != "__arrays__"}
        return Artifact(kind=kind, key=key, arrays=arrays, meta=meta)

    def save(
        self,
        kind: str,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping | None = None,
    ) -> None:
        """Persist an artifact atomically; counts as one ``build``.

        Safe under concurrent writers: the artifact is assembled in a
        temp directory and renamed into place; a loser of the race
        discards its copy (the winner's content is identical by
        construction — keys are content-determining).
        """
        self._kind_stats(kind)["builds"] += 1
        final = self._dir_of(kind, key)
        if (final / "meta.json").is_file():
            return
        tmp = self.root / "tmp" / f"{key}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            payload = dict(meta or {})
            payload["__arrays__"] = sorted(arrays)
            for name, arr in arrays.items():
                np.save(tmp / f"{name}.npy", np.ascontiguousarray(arr))
            (tmp / "meta.json").write_text(json.dumps(payload, sort_keys=True))
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(tmp, final)
            except OSError:
                # Lost the race (target exists) — keep the winner's copy.
                if not (final / "meta.json").is_file():
                    raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        """Per-kind load/miss/build counters for this process."""
        return {kind: dict(st) for kind, st in self._stats.items()}

    def reset_stats(self) -> None:
        """Zero the per-process counters (tests)."""
        self._stats.clear()

    def info(self) -> dict[str, dict[str, float]]:
        """On-disk inventory per kind: artifact count, bytes, and the
        total ``build_s`` their metas record (what building them cost
        the processes that did; artifacts saved without one count 0).
        Unreadable artifacts are skipped, as in :meth:`entries`."""
        out: dict[str, dict[str, float]] = {}
        if not self.root.is_dir():
            return out
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir() or kind_dir.name == "tmp":
                continue
            rows = self.entries(kind_dir.name)
            out[kind_dir.name] = {
                "artifacts": len(rows),
                "bytes": sum(row["bytes"] for row in rows),
                "build_s": sum(row["meta"].get("build_s", 0.0) for row in rows),
            }
        return out

    def entries(self, kind: str) -> list[dict]:
        """Per-artifact detail of one kind: key, metadata, on-disk bytes.

        Sorted by key for deterministic listings; unreadable metadata is
        skipped (corrupt artifacts already count as load misses).  Used
        by ``repro cache info`` to describe e.g. stored contraction
        hierarchies (graph label, vertex count, size).
        """
        out: list[dict] = []
        kind_dir = self.root / kind
        if not kind_dir.is_dir():
            return out
        for meta_path in sorted(kind_dir.glob("*/*/meta.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            nbytes = sum(
                f.stat().st_size
                for f in sorted(meta_path.parent.iterdir())
                if f.is_file()
            )
            out.append(
                {
                    "key": meta_path.parent.name,
                    "bytes": nbytes,
                    "meta": {k: v for k, v in meta.items() if k != "__arrays__"},
                }
            )
        return out

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = sum(v["artifacts"] for v in self.info().values())
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return removed


# ----------------------------------------------------------------------
# process-wide store resolution
# ----------------------------------------------------------------------
_STORES: dict[str, ArtifactStore] = {}


def get_store() -> ArtifactStore | None:
    """The active store per :data:`ARTIFACT_DIR_ENV`, or ``None`` when off.

    The environment is consulted on every call (tests and the sweep
    harness redirect it), but store objects — and their per-process
    counters — are reused per resolved root.
    """
    raw = os.environ.get(ARTIFACT_DIR_ENV, "").strip()
    if raw.lower() in _DISABLED_VALUES:
        return None
    root = raw or default_root()
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = ArtifactStore(root)
    return store


def stats() -> dict[str, dict[str, int]]:
    """Merged per-kind counters across every store touched by this process."""
    merged: dict[str, dict[str, int]] = {}
    for store in _STORES.values():
        for kind, st in store.stats().items():
            agg = merged.setdefault(
                kind, {"loads": 0, "misses": 0, "builds": 0, "mmap_loads": 0}
            )
            for k, v in st.items():
                agg[k] += v
    return merged


def reset_stats() -> None:
    """Zero every store's per-process counters (tests)."""
    for store in _STORES.values():
        store.reset_stats()
