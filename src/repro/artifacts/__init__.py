"""Persistent preprocessing artifacts (the paper's offline phase, on disk).

See :mod:`repro.artifacts.store` for the content-addressed store and
``docs/PERFORMANCE.md`` ("Artifact store & parallel sweeps") for the
cache layout, environment variables and invalidation rules.
"""

from .store import (
    ARTIFACT_DIR_ENV,
    SCHEMA_VERSION,
    Artifact,
    ArtifactStore,
    canonical_json,
    default_root,
    get_store,
    stats,
)

__all__ = [
    "ARTIFACT_DIR_ENV",
    "SCHEMA_VERSION",
    "Artifact",
    "ArtifactStore",
    "canonical_json",
    "default_root",
    "get_store",
    "stats",
]
