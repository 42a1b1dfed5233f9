"""Import hygiene: a process imports what it will call.

A warm ``full``-mode run of a scheme that routes on the stored
all-pairs table never calls scipy, so it must not import it (~0.3 s of
a ~0.55 s set-up); a run that *does* call scipy must have imported it
by the time the simulator is built, never inside ``run()``; the run
path must not load the static linter; ``import repro`` must load
nothing; and a CLI sub-command must import only what it runs
(docs/ARCHITECTURE.md, "Import rule"; docs/PERFORMANCE.md, "Start-up").

Everything here runs in subprocesses — the pytest session itself has
scipy and the whole tree loaded — against one store the module warms
first.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.artifacts import ARTIFACT_DIR_ENV

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The world every cell runs on; the flags below give ``repro simulate``
#: the same ScenarioSpec, so the CLI cells find the store warm too.
SPEC = dict(grid_rows=8, grid_cols=8, hourly_requests=60, history_days=3,
            num_partitions=4, seed=3)
CLI_WORLD = ["--grid", "8", "--requests", "60", "--partitions", "4", "--seed", "3",
             "--taxis", "10"]
FAULTS = "seed=1,breakdown_rate=0.3,cancel_rate=0.15,shock_windows=2"

#: Warm ``full`` cells that never call scipy: (scheme, faults, rebalance).
NO_SCIPY_CELLS = [
    ("no-sharing", None, None),
    ("t-share", None, None),
    ("pgreedydp", None, None),
    ("mt-share", None, None),
    ("mt-share", FAULTS, None),
    ("mt-share", None, "on"),
]
#: Cells that do: (scheme, sp_mode, a module construction must have loaded).
SCIPY_CELLS = [
    ("mt-share-pro", "full", "scipy.sparse.csgraph"),
    ("mt-share", "lazy", "scipy.sparse.csgraph"),
    ("mt-share", "ch", "scipy.sparse.csgraph"),
    ("window-lap", "full", "scipy.optimize"),
]

#: Builds each cell in ``argv[1]`` and (``argv[2]``) runs it; prints, per
#: cell, the scipy modules loaded before and after ``run()``.
CELL_SCRIPT = """
import json, sys
from repro import artifacts
from repro.core.payment import PaymentModel
from repro.sim.engine import Simulator
from repro.sim.scenario import ScenarioSpec, get_scenario

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = []
for cell in json.loads(sys.argv[1]):
    kind = "nonpeak" if cell["scheme"] == "mt-share-pro" else "peak"
    scenario = get_scenario(ScenarioSpec(kind=kind, sp_mode=cell["sp_mode"], **cell["spec"]))
    config = scenario.default_config()
    fleet = scenario.make_fleet(10, seed=1)
    requests = scenario.requests(seed=1)
    sim = Simulator(
        scenario.make_scheme(cell["scheme"], config), fleet, requests,
        payment=PaymentModel(),
        faults=scenario.fault_plan(cell["faults"], fleet, requests),
        rebalance=scenario.rebalance_policy(cell["rebalance"], config),
    )
    before = scipy_modules()
    served = sim.run().served if json.loads(sys.argv[2]) else None
    out.append({
        "before": before, "after": scipy_modules(), "served": served,
        "linter": "repro.analysis.checkers" in sys.modules,
        "builds": sum(row["builds"] for row in artifacts.stats().values()),
    })
print(json.dumps(out))
"""

#: ``python -m repro ARGV`` in this process, then what it left loaded.
CLI_SCRIPT = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print("\\n" + json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(store, script, *args):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SP_MODE"}
    env.update({"PYTHONPATH": SRC, ARTIFACT_DIR_ENV: str(store)})
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cell(scheme, sp_mode="full", faults=None, rebalance=None):
    return {"scheme": scheme, "sp_mode": sp_mode, "faults": faults,
            "rebalance": rebalance, "spec": SPEC}


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding every artifact the cells below load."""
    store = tmp_path_factory.mktemp("import-hygiene-store")
    cells = [_cell(scheme, faults=f, rebalance=r) for scheme, f, r in NO_SCIPY_CELLS]
    cells += [_cell(scheme, sp_mode) for scheme, sp_mode, _ in SCIPY_CELLS]
    _python(store, CELL_SCRIPT, json.dumps(cells), "false")
    return store


@pytest.fixture(scope="module")
def no_scipy_runs(warm_store):
    """All of NO_SCIPY_CELLS run in *one* process, in order: scipy absent
    after the last cell means absent after every one before it, and the
    per-cell snapshots say which cell brought it in if not."""
    cells = [_cell(scheme, faults=f, rebalance=r) for scheme, f, r in NO_SCIPY_CELLS]
    return _python(warm_store, CELL_SCRIPT, json.dumps(cells), "true")


@pytest.mark.parametrize("index", range(len(NO_SCIPY_CELLS)),
                         ids=[f"{s}{'+faults' if f else ''}{'+rebalance' if r else ''}"
                              for s, f, r in NO_SCIPY_CELLS])
def test_warm_full_run_imports_neither_scipy_nor_the_linter(no_scipy_runs, index):
    got = no_scipy_runs[index]
    assert got["builds"] == 0  # the premise: a warm store
    assert got["served"] > 0
    assert got["after"] == []
    assert not got["linter"]


@pytest.mark.parametrize("scheme,sp_mode,needs", SCIPY_CELLS,
                         ids=[f"{s}-{m}" for s, m, _ in SCIPY_CELLS])
def test_scipy_is_imported_by_construction_never_inside_run(warm_store, scheme, sp_mode, needs):
    """An import that lands in the first corridor search or the first
    source tree is ~0.3 s inside the timed run (a variant of this change
    without the construction-time imports read ``nonpeak-pro`` ``run_s``
    +27 %)."""
    (got,) = _python(warm_store, CELL_SCRIPT, json.dumps([_cell(scheme, sp_mode)]), "true")
    assert got["builds"] == 0 and got["served"] > 0
    assert needs in got["before"]
    assert got["after"] == got["before"]
    assert not got["linter"]


def test_import_repro_loads_nothing(warm_store):
    loaded = _python(warm_store, """
import json, sys
import repro
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("repro", "numpy", "scipy"))))
""")
    assert loaded == ["repro"]


def test_public_names_resolve_to_their_home_modules():
    assert len(repro.__all__) == 34 and set(repro.__all__) <= set(dir(repro))
    for name in repro.__all__:
        value = getattr(repro, name)
        if name == "__version__":
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("repro.") and getattr(home, name) is value, name
        # ... and through the subpackage the eager ``__init__`` imported it from.
        package = importlib.import_module(".".join(value.__module__.split(".")[:2]))
        assert getattr(package, name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'Simulatr'"):
        repro.Simulatr
    with pytest.raises(ImportError):
        exec("from repro import Simulatr")


def test_every_name_the_benchmark_tracer_patches_resolves():
    """``benchmarks/e2e/trace.py::WRAP_TABLE`` names public callables as
    ``module:Attr.path`` strings and the traced child patches them by
    name, so a caller-less method in ``src/`` can still be surface the
    harness needs (``ShortestPathEngine.cost_many`` is): deleting or
    renaming one must fail here, not in the next benchmark run."""
    import importlib.util

    path = os.path.join(os.path.dirname(SRC), "benchmarks", "e2e", "trace.py")
    spec = importlib.util.spec_from_file_location("e2e_span_trace", path)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    targets = [t for group in spantrace.WRAP_TABLE.values() for t in group]
    assert "repro.network.shortest_path:ShortestPathEngine.cost_many" in targets
    for target in targets:
        module_name, attr_path = target.split(":")
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part)  # AttributeError names the dead target
        assert callable(owner), target


@pytest.mark.parametrize("argv,code,absent", [
    (["--help"], 0, ("repro.sim", "repro.experiments", "repro.artifacts", "numpy", "scipy")),
    (["lint", "--help"], 0, ("repro.sim", "repro.experiments", "numpy", "scipy")),
    (["cache", "info"], 0, ("repro.sim", "repro.experiments", "scipy")),
    (["simulate", *CLI_WORLD], 0, ("repro.experiments", "repro.analysis.checkers", "scipy")),
    (["simulate", *CLI_WORLD, "--scheme", "bogus"], 2, ("repro.experiments", "scipy")),
], ids=["help", "lint-help", "cache-info", "simulate", "simulate-bad-scheme"])
def test_cli_subcommand_imports_what_it_runs(warm_store, argv, code, absent):
    got = _python(warm_store, CLI_SCRIPT, json.dumps(argv))
    assert got["code"] == code
    loaded = set(got["modules"])
    for name in absent:
        assert name not in loaded, name
    if argv[0] == "simulate" and code == 0:
        assert "repro.sim.engine" in loaded  # not vacuous
