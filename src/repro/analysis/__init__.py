"""Project-specific static analysis: the ``repro lint`` engine.

The reproduction's value rests on bit-for-bit determinism (cold builds,
store-warmed builds and worker processes must take identical dispatch
decisions) and on the paper's schedule/accounting invariants.  This
package enforces both:

``repro.analysis.engine`` / ``repro.analysis.checkers``
    An AST-walking lint engine with checkers tuned to this codebase's
    historical failure modes (REP001..REP008) — unordered set
    iteration, unseeded global RNG, wall-clock reads in dispatch code,
    float equality, mutable defaults, unordered hash inputs, swallowed
    exceptions and unsorted directory listings.  Run it as
    ``repro lint [paths]`` or ``python -m repro.analysis``.

``repro.analysis.contracts``
    Runtime invariant checks (pickup-before-dropoff, capacity, clock
    monotonicity, request accounting) enabled by ``REPRO_CONTRACTS=1``
    and in the test suite; no-ops otherwise.

See ``docs/STATIC_ANALYSIS.md`` for the checker catalog, the
suppression syntax and the baseline workflow.
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["ALL_CHECKERS", "Finding", "LintResult", "lint_paths", "main"]

#: Public name -> the submodule that defines it.  Resolved on first
#: access (PEP 562): the simulator imports :mod:`.contracts` through
#: this package on every run and must not load the static tier with it.
_HOMES = {
    "ALL_CHECKERS": "checkers",
    "Finding": "engine",
    "LintResult": "engine",
    "lint_paths": "engine",
    "main": "engine",
}


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
