"""Scoped ``mypy --strict`` gate for the simulation core.

mypy is not a runtime dependency and may be absent from the execution
environment (it is absent from the pinned test image); the test skips
cleanly then and CI's dedicated typecheck job provides the enforced
run.  When mypy *is* installed locally, this keeps the strict scope
honest without a separate command.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed; CI's typecheck job enforces this",
)
def test_mypy_strict_on_sim_core():
    # Packages and mypy_path come from [tool.mypy] in pyproject.toml:
    # repro.core, repro.fleet, repro.network, repro.index and the
    # repro.memo module under strict.
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
