"""Determinism held by running the code: double runs and the purity guard.

Two properties, one mechanism — run it twice in one process and compare:

* **Double-run smoke test.**  The quick Fig. 21-style scenario run
  twice, caches cleared in between, must repeat its dispatch decisions
  and metric summaries bit for bit.  The cheap in-process cousin of
  test_runner_parallel's cross-process check, and the one a hash-seed-
  or set-iteration-order regression trips first.
* **The dispatch-path purity guard.**  Everything the paper's online
  side computes (Eq. 3, Algorithms 1, 3, 4) is a pure function of the
  indexes and the request: between ``Simulator.run()`` being entered
  and returning — or ``stream_begin()`` .. ``stream_finish()`` — the
  program opens no file, touches no socket, starts no process, imports
  no module, reads no environment variable, and leaves nothing behind
  that a later run can see.  :func:`dispatch_path_violations` arms an
  audit hook and the :data:`SILENT_READS` proxies around exactly that
  region, over a matrix of every scheme and optional subsystem, and
  runs each leg twice to catch surviving state.  The seeded-defect
  tests at the bottom prove the guard goes red, for the stated reason,
  on each kind of leak.  What it replaced and what it cannot see:
  docs/STATIC_ANALYSIS.md, "What holds the dispatch-path contract".
"""

from __future__ import annotations

import functools
import os
import socket
import sys
from collections.abc import Iterator, MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.baselines.tshare import TShare
from repro.core.matching import Matcher
from repro.core.payment import PaymentModel
from repro.experiments.runner import RunKey, clear_cache, run
from repro.sim.engine import Simulator
from repro.sim.scenario import ScenarioSpec, get_scenario

from .test_runner_parallel import decision_fingerprint

QUICK_SPEC = ScenarioSpec(
    kind="peak",
    grid_rows=8,
    grid_cols=8,
    spacing_m=180.0,
    hourly_requests=120,
    history_days=2,
    num_partitions=9,
    offline_count=10,
    seed=3,
)

#: Wall-clock-derived summary keys; everything else must match exactly.
MEASURED_KEYS = frozenset(
    {"response_ms", "stage_candidates_ms", "stage_insertion_ms", "stage_planning_ms"}
)


def decision_summary(metrics) -> dict[str, float]:
    return {k: v for k, v in metrics.summary().items() if k not in MEASURED_KEYS}


def test_double_run_identical_decisions_and_metrics():
    key = RunKey(spec=QUICK_SPEC, scheme="mt-share", num_taxis=20)

    clear_cache()
    first = run(key)
    clear_cache()
    second = run(key)
    clear_cache()

    assert decision_fingerprint(first) == decision_fingerprint(second)
    assert decision_summary(first) == decision_summary(second)


def test_double_run_baseline_scheme():
    key = RunKey(spec=QUICK_SPEC, scheme="t-share", num_taxis=15)

    clear_cache()
    first = run(key)
    clear_cache()
    second = run(key)
    clear_cache()

    assert decision_fingerprint(first) == decision_fingerprint(second)
    assert decision_summary(first) == decision_summary(second)


# ----------------------------------------------------------------------
# the purity guard: what is recorded while armed
# ----------------------------------------------------------------------
#: Audit events denied on the dispatch path: these two by name, and
#: every event of the namespaces below (``os.listdir``, ``os.remove``,
#: ``socket.__new__``, ``subprocess.Popen``, ...).  All of them exist
#: since Python 3.8, so the guard reads the same on every CI version.
DENIED_EVENTS = frozenset({"open", "import"})
DENIED_NAMESPACES = frozenset(
    {"os", "shutil", "tempfile", "glob", "socket", "urllib", "subprocess"}
)

#: Where an armed region records; ``None`` is "not armed".  Audit hooks
#: cannot be removed, so the one hook below is installed once, by the
#: first armed region of the process, and this name is the switch.
_recording: list[str] | None = None


def _audit_hook(event: str, args: tuple) -> None:
    if _recording is not None and (
        event in DENIED_EVENTS or event.partition(".")[0] in DENIED_NAMESPACES
    ):
        _recording.append(f"{event} {args[0]!r}" if args else event)


@functools.cache
def _install_audit_hook() -> None:
    sys.addaudithook(_audit_hook)


class _WatchedEnviron(MutableMapping):
    """``os.environ`` with every access recorded.  ``os.getenv`` reads
    the ``os`` module's ``environ`` global, so it lands here too."""

    def __init__(self, real: MutableMapping, seen: list[str]) -> None:
        self._real, self._seen = real, seen

    def __getitem__(self, key):
        self._seen.append(f"os.environ read {key!r}")
        return self._real[key]

    def __setitem__(self, key, value) -> None:
        self._seen.append(f"os.environ write {key!r}")
        self._real[key] = value

    def __delitem__(self, key) -> None:
        self._seen.append(f"os.environ delete {key!r}")
        del self._real[key]

    def __iter__(self):
        self._seen.append("os.environ listed")
        return iter(self._real)

    def __len__(self) -> int:
        self._seen.append("os.environ listed")
        return len(self._real)


#: Reads of the outside world that raise no audit event, as
#: ``(owner, attribute)``; the guard swaps each for a recording stand-in
#: while armed.  ``Path.stat`` is listed beside ``os.stat`` because
#: Python 3.10's pathlib binds ``os.stat`` at class creation.
SILENT_READS = ((os, "stat"), (os, "lstat"), (Path, "stat"))


@contextmanager
def armed() -> Iterator[list[str]]:
    """Record every denied event and silent read until the block exits."""
    global _recording
    _install_audit_hook()
    seen: list[str] = []

    def watched(label: str, real):
        def stand_in(*args, **kwargs):
            seen.append(f"{label} {args[0]!r}")
            return real(*args, **kwargs)

        return stand_in

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "environ", _WatchedEnviron(os.environ, seen))
        for owner, name in SILENT_READS:
            patch.setattr(owner, name, watched(f"{owner.__name__}.{name}", getattr(owner, name)))
        _recording = seen
        try:
            yield seen
        finally:
            _recording = None


# ----------------------------------------------------------------------
# the purity guard: what runs while armed
# ----------------------------------------------------------------------
#: 10 x 10 non-peak city with street hails, so every leg also runs the
#: encounter scan, ``try_offline`` and encounter redispatch, and the
#: probabilistic schemes cruise.
GUARD_SPEC = ScenarioSpec(
    kind="nonpeak",
    grid_rows=10,
    grid_cols=10,
    spacing_m=180.0,
    hourly_requests=150,
    history_days=2,
    num_partitions=9,
    offline_count=40,
    seed=3,
)
GUARD_TAXIS = 20
CHAOS = "seed=5,breakdown_rate=0.2,cancel_rate=0.15,shock_windows=2"


@dataclass(frozen=True)
class Leg:
    """One run of the matrix; the fields mirror the ``simulate`` flags."""

    scheme: str
    sp_mode: str = "full"
    window: float | None = None
    faults: str | None = None
    rebalance: str | None = None
    streamed: bool = False
    #: Counters and stages that must be nonzero, so the leg provably
    #: ran the subsystem it is in the matrix for.
    exercises: tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [self.scheme, self.sp_mode]
        parts += [f"W={self.window:g}"] if self.window is not None else []
        parts += ["faults"] if self.faults else []
        parts += ["rebalance"] if self.rebalance else []
        parts += ["streamed"] if self.streamed else []
        return "-".join(parts)


MATRIX = [
    Leg("no-sharing", exercises=("sim.encounters_scanned",)),
    Leg("t-share"),
    Leg("pgreedydp"),
    Leg("mt-share"),
    Leg("mt-share-pro", exercises=("route.probabilistic", "route.sector_entries")),
    Leg("window-lap", window=30.0, exercises=("window.lap_solves", "window.rolled")),
    Leg("window-lap", window=0.0, exercises=("window.flushes",)),
    Leg("mt-share", sp_mode="lazy"),
    Leg("mt-share", sp_mode="ch", exercises=("sp.ch.queries",)),
    Leg("mt-share", faults=CHAOS,
        exercises=("fault.breakdowns", "fault.cancellations", "fault.shock_delays")),
    Leg("mt-share", rebalance="on", exercises=("rebalance.moves",)),
    Leg("mt-share-pro", faults=CHAOS, rebalance="on", exercises=("rebalance.ticks",)),
    Leg("no-sharing", streamed=True),
    Leg("mt-share-pro", streamed=True),
    Leg("window-lap", window=30.0, faults=CHAOS, streamed=True),
]


def guarded_run(leg: Leg) -> tuple[list[str], tuple, dict[str, int]]:
    """One run of ``leg`` from a cleared cache: what the armed region
    recorded, the decision fingerprint, the run's counters and stage
    counts.

    Building the scenario, scheme, fleet, workload, fault plan and
    simulator is set-up and happens un-armed (it loads artifacts and
    imports what the scheme needs); the run itself is armed.  The trace
    writer is off — ``repro.obs`` writing a JSONL trace is the one
    sanctioned I/O of a run, see ``test_trace_writer_is_the_sanctioned_io``.
    """
    clear_cache()
    scenario = get_scenario(replace(GUARD_SPEC, sp_mode=leg.sp_mode))
    overrides = {} if leg.window is None else {"dispatch_window_s": leg.window}
    config = scenario.default_config(**overrides)
    scheme = scenario.make_scheme(leg.scheme, config=config)
    requests = scenario.requests()
    fleet = scenario.make_fleet(GUARD_TAXIS)
    faults = scenario.fault_plan(leg.faults, fleet, requests)
    sim = Simulator(
        scheme, fleet, [] if leg.streamed else requests, payment=PaymentModel(),
        faults=faults, rebalance=scenario.rebalance_policy(leg.rebalance, config),
    )
    with armed() as seen:
        plan_print = None if faults is None else faults.fingerprint()
        if leg.streamed:
            sim.stream_begin()
            for request in sorted(requests, key=lambda r: (r.release_time, r.request_id)):
                sim.stream_submit(request)
                sim.stream_pump(until=request.release_time)
            metrics = sim.stream_finish()
        else:
            metrics = sim.run()
    ran = {name: stage["count"] for name, stage in metrics.stages.items()}
    return seen, (plan_print, decision_fingerprint(metrics)), {**metrics.counters, **ran}


FINGERPRINT_MOVED = "decision fingerprint moved between two runs in one process"


def dispatch_path_violations(leg: Leg) -> list[str]:
    """Everything ``leg`` does that the dispatch-path contract forbids.

    Two runs in one process, ``clear_cache()`` before each: whatever
    either armed region recorded, plus :data:`FINGERPRINT_MOVED` when
    the second run decides differently — state that outlives a run and
    reaches a decision has nowhere else to show.  A leg that never
    counted what it :attr:`~Leg.exercises` guards nothing and says so.
    """
    seen_first, print_first, ran = guarded_run(leg)
    seen_second, print_second, _ran = guarded_run(leg)
    clear_cache()
    moved = [FINGERPRINT_MOVED] if print_first != print_second else []
    idle = [f"never counted {name}" for name in leg.exercises if not ran.get(name)]
    return seen_first + seen_second + moved + idle


@pytest.mark.parametrize("leg", MATRIX, ids=str)
def test_dispatch_path_is_pure(leg):
    assert dispatch_path_violations(leg) == []


def test_trace_writer_is_the_sanctioned_io(tmp_path):
    """The negative: a run with the JSONL trace on stays inside the
    contract as the guard reads it.  ``Simulator.__init__`` opens the
    file (set-up, un-armed); the run only writes to the open handle,
    and a write raises no audit event — ``open`` is on the deny list,
    ``repro.obs`` appending to what set-up opened is not."""
    scenario = get_scenario(GUARD_SPEC)
    trace = tmp_path / "trace.jsonl"
    sim = Simulator(
        scenario.make_scheme("mt-share"), scenario.make_fleet(GUARD_TAXIS),
        scenario.requests(), trace_path=str(trace),
    )
    with armed() as seen:
        sim.run()
    clear_cache()
    assert seen == []
    assert trace.read_text().count("\n") > len(scenario.requests())


# ----------------------------------------------------------------------
# guarding the guard: seeded defects, each on the scheme's own path
# ----------------------------------------------------------------------
#: scheme -> ``(owner, method, the method's "no answer")``: a function
#: its dispatch path calls per request.  The baselines never enter
#: ``Matcher``, so a plant there would prove nothing about them.
PLANT_SITES = {
    "mt-share": (Matcher, "candidate_taxis", []),
    "t-share": (TShare, "dispatch", None),
}


def _import_unloaded() -> None:
    sys.modules.pop("colorsys", None)
    import colorsys  # noqa: F401


#: defect -> ``(the leak, how the guard names it)``.
SEEDED_IO = {
    "os.environ.get": (lambda: os.environ.get("HOME"), "os.environ read 'HOME'"),
    "os.getenv": (lambda: os.getenv("HOME"), "os.environ read 'HOME'"),
    "open": (lambda: open(os.devnull).close(), f"open {os.devnull!r}"),
    "Path.exists": (lambda: Path(os.devnull).exists(), "Path.stat "),
    "socket": (lambda: socket.socket().close(), "socket.__new__ "),
    "import": (_import_unloaded, "import 'colorsys'"),
}

#: request id -> times dispatched, across runs: the state that survives.
_DISPATCHED: dict[int, int] = {}


@pytest.mark.parametrize("scheme", PLANT_SITES)
@pytest.mark.parametrize("defect", SEEDED_IO)
def test_guard_is_red_on_seeded_io(monkeypatch, scheme, defect):
    leak, named = SEEDED_IO[defect]
    owner, method, _no_answer = PLANT_SITES[scheme]
    real = getattr(owner, method)

    def leaking(self, *args, **kwargs):
        leak()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(owner, method, leaking)
    violations = dispatch_path_violations(Leg(scheme))
    assert any(v.startswith(named) for v in violations), violations
    # What leaked was never read back into an answer.
    assert FINGERPRINT_MOVED not in violations


@pytest.mark.parametrize("scheme", PLANT_SITES)
def test_guard_is_red_on_state_that_survives_a_run(monkeypatch, scheme):
    """No event to hear: a module-level table written per dispatch and
    read back into the next answer for the same request.  The first run
    sees each id once; the second finds them all taken and matches
    nothing — only the double-run fingerprint can tell."""
    owner, method, no_answer = PLANT_SITES[scheme]
    real = getattr(owner, method)

    def remembering(self, request, *args, **kwargs):
        _DISPATCHED[request.request_id] = _DISPATCHED.get(request.request_id, 0) + 1
        if _DISPATCHED[request.request_id] > 1:
            return no_answer
        return real(self, request, *args, **kwargs)

    _DISPATCHED.clear()
    monkeypatch.setattr(owner, method, remembering)
    assert dispatch_path_violations(Leg(scheme)) == [FINGERPRINT_MOVED]
