"""Import hygiene: a process imports what it will call — and the
package defines only what something outside the tests calls, and takes
as a parameter only what something outside the tests sets.

A warm ``full``-mode run of a scheme that routes on the stored
all-pairs table — probabilistic routing included — loads its network
instead of generating it and never calls scipy,
so it must not import it (~0.3 s of a ~0.55 s set-up) — and no ``src/repro`` module imports scipy at its
top, so importing a module never does either; a run that *does* call
scipy must have imported it
by the time the simulator is built, never inside ``run()``; the run
path must not load the static linter; ``import repro`` must load
nothing; and a CLI sub-command must import only what it runs
(docs/ARCHITECTURE.md, "Import rule"; docs/PERFORMANCE.md, "Start-up").

Everything here runs in subprocesses — the pytest session itself has
scipy and the whole tree loaded — against one store the module warms
first.
"""

from __future__ import annotations

import ast
import collections
import importlib
import json
import os
import pathlib
import re
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
#: ``+prob`` attaches probabilistic routing to a baseline (Fig. 16).
NO_SCIPY_CELLS = [
    ("no-sharing", None, None),
    ("t-share", None, None),
    ("pgreedydp", None, None),
    ("mt-share", None, None),
    ("mt-share", FAULTS, None),
    ("mt-share", None, "on"),
    ("window-lap", None, None),
    ("mt-share-pro", None, None),
    ("t-share+prob", None, None),
]
#: Cells that do: (scheme, sp_mode, a module construction must have loaded).
SCIPY_CELLS = [
    ("mt-share", "lazy", "scipy.sparse.csgraph"),
    ("mt-share-pro", "lazy", "scipy.sparse.csgraph"),
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
    name, prob, _ = cell["scheme"].partition("+prob")
    kind = "nonpeak" if name == "mt-share-pro" or prob else "peak"
    scenario = get_scenario(ScenarioSpec(kind=kind, sp_mode=cell["sp_mode"], **cell["spec"]))
    config = scenario.default_config()
    fleet = scenario.make_fleet(10, seed=1)
    requests = scenario.requests(seed=1)
    sim = Simulator(
        scenario.make_scheme(name, config, probabilistic=bool(prob)), fleet, requests,
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
        "network_loads": artifacts.stats().get("network", {}).get("loads", 0),
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
    env = {**os.environ, "PYTHONPATH": SRC, ARTIFACT_DIR_ENV: str(store)}
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
    # The network is loaded, not regenerated: no component search either.
    assert got["network_loads"] >= 1
    assert got["served"] > 0
    assert got["after"] == []
    assert not got["linter"]


@pytest.mark.parametrize("scheme,sp_mode,needs", SCIPY_CELLS,
                         ids=[f"{s}-{m}" for s, m, _ in SCIPY_CELLS])
def test_scipy_is_imported_by_construction_never_inside_run(warm_store, scheme, sp_mode, needs):
    """An import that lands in the first source tree or the first
    restricted leg is ~0.3 s inside the timed run (when probabilistic
    routing still ran its corridor legs on scipy, a variant without the
    construction-time import read ``nonpeak-pro`` ``run_s`` +27 %)."""
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
    (["simulate", *CLI_WORLD, "--scheme", "window-lap"], 0, ("repro.experiments", "scipy")),
    (["simulate", *CLI_WORLD, "--scheme", "mt-share-pro", "--kind", "nonpeak"], 0,
     ("repro.experiments", "scipy")),
], ids=["help", "lint-help", "cache-info", "simulate", "simulate-bad-scheme",
        "simulate-window-lap", "simulate-mt-share-pro"])
def test_cli_subcommand_imports_what_it_runs(warm_store, argv, code, absent):
    got = _python(warm_store, CLI_SCRIPT, json.dumps(argv))
    assert got["code"] == code
    loaded = set(got["modules"])
    for name in absent:
        assert name not in loaded, name
    if argv[0] == "simulate" and code == 0:
        assert "repro.sim.engine" in loaded  # not vacuous


def _module_top_imports(tree):
    """Names of the modules an import of ``tree`` loads by itself: its
    top-level and class-body imports, not those in functions or under
    ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            stack.extend(stmt for handler in node.handlers for stmt in handler.body)
        elif isinstance(node, (ast.ClassDef, ast.With)):
            stack.extend(node.body)


def test_no_module_imports_scipy_at_its_top():
    """scipy is imported where it is called (docs/ARCHITECTURE.md,
    "Import rule"); the rule has no exception left."""
    offenders = []
    seen_numpy = 0
    for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py")):
        names = set(_module_top_imports(ast.parse(path.read_text(encoding="utf-8"))))
        seen_numpy += "numpy" in names
        offenders += [f"{path.relative_to(SRC)}: {name}" for name in sorted(names)
                      if name == "scipy" or name.startswith("scipy.")]
    assert seen_numpy > 10  # not vacuous: the walk sees module-top imports
    assert offenders == []


#: ``def``s and ``class``es in ``src/repro`` that nothing outside
#: ``tests/`` calls, each with the reason it stays.  Every other
#: caller-less definition is dead code and fails
#: :func:`test_every_definition_has_a_caller_outside_the_tests`.
SURFACE_KEEP = {
    # Reference implementations the tests diff production against.
    "MobilityVector.similarity": "Eq. 1 on two vectors, the scalar form of "
    "the clustering and alignment kernels (tests/test_kernels.py)",
    "TransitionModel.mass_to": "per-vertex psi, the scalar form of "
    "suitable_demand (tests/oracles.py::ReferenceProbabilisticRouter)",
    "TransitionModel.relative_pickup_frequency": "per-vertex demand weight, the "
    "scalar form of suitable_demand (tests/oracles.py::ReferenceProbabilisticRouter)",
    "TransitionModel.prob": "B_{v,c}, the scalar read of the transition matrix "
    "tests/test_transition.py checks the model through",
    "RoadNetwork.edge_cost": "one hop's travel time, the scalar form of hop_costs the "
    "reference routers time their legs with (tests/oracles.py)",
    # Documented test hooks.
    "contracts.enable": "turns the runtime contracts on for the test session "
    "(repro.analysis.contracts, docs/STATIC_ANALYSIS.md)",
    "MTShare.matcher": "the dispatcher's Matcher, screened directly by the "
    "candidate-search tests (tests/test_matching.py::ScreeningWorld)",
    "runner.clear_cache": "drops memoised runs and scenarios between cells "
    "(docs/PERFORMANCE.md, docs/STATIC_ANALYSIS.md)",
    "ArtifactStore.reset_stats": "zeroes a store's per-process counters between "
    "a cold and a warm load (its docstring)",
    # Callbacks the standard library calls by name.
    "Handler.log_message": "http.server.BaseHTTPRequestHandler hook",
    "Handler.do_GET": "http.server.BaseHTTPRequestHandler hook",
    "Handler.do_POST": "http.server.BaseHTTPRequestHandler hook",
}

#: ``module:Attr.path`` strings, the form ``benchmarks/e2e/trace.py``'s
#: ``WRAP_TABLE`` names its patch targets in.
_PATCH_TARGET = re.compile(r"^[\w.]+:[\w.]+$")


class _Surface(ast.NodeVisitor):
    """Collects a module's definitions (``src`` only) and the names it uses.

    A use is a bare name, an attribute, or a part of a patch-target
    string; import statements and ``__all__`` lists name things without
    calling them, so they do not count.
    """

    def __init__(self, path, collect, defs, uses):
        self.path, self.collect, self.defs, self.uses = path, collect, defs, uses
        self.owner = path.stem  # the enclosing class or function, else the module

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_FunctionDef(self, node):
        if self.collect and not (node.name.startswith("__") and node.name.endswith("__")):
            self.defs.append((f"{self.owner}.{node.name}", node.name, self.path,
                              node.lineno, node.end_lineno))
        saved, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = saved

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        self.uses[node.id].append((self.path, node.lineno))

    def visit_Attribute(self, node):
        self.uses[node.attr].append((self.path, node.lineno))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _PATCH_TARGET.match(node.value):
            for part in re.split(r"[:.]", node.value):
                self.uses[part].append((self.path, node.lineno))


def caller_less_definitions(root):
    """Qualified names (``Owner.name``) of the ``def``s and ``class``es in
    ``root/src`` that no line of ``src``, ``examples`` or ``benchmarks``
    outside their own body names; ``Owner`` is the enclosing class or
    function, or the module for top-level definitions."""
    defs, uses = [], collections.defaultdict(list)
    for tree in ("src", "examples", "benchmarks"):
        for path in sorted(pathlib.Path(root, tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            _Surface(path, tree == "src", defs, uses).visit(module)
    assert len(defs) > 500  # not vacuous: the walk sees the package
    return sorted(
        qualname for qualname, name, path, first, last in defs
        if all(p == path and first <= line <= last for p, line in uses[name])
    )


def test_every_definition_has_a_caller_outside_the_tests():
    """A helper only its unit test calls is surface nobody uses: delete
    it with its test, or give it a reason in :data:`SURFACE_KEEP`.  The
    check matches names, not bindings, so a dead method that shares its
    name with a live one passes (``DemandPredictor.share`` hid behind
    ``share`` this way until it was deleted)."""
    assert caller_less_definitions(os.path.dirname(SRC)) == sorted(SURFACE_KEEP)
    assert all(reason.strip() for reason in SURFACE_KEEP.values())


#: Defaulted parameters in ``src/repro`` that nothing outside ``tests/``
#: sets, each with the reason it stays settable.  Every other such
#: parameter is a setting only the tests turn: a module constant the
#: tests patch, or gone; see
#: :func:`test_every_defaulted_parameter_is_set_outside_the_tests`.
PARAMETER_KEEP = {
    "contracts.enable(on)": "the documented switch the test session arms the runtime "
    "contracts with (repro.analysis.contracts, docs/STATIC_ANALYSIS.md)",
    "DispatchService.pump(until)": "the batch == streamed checks pump up to each release "
    "(tests/test_service.py, test_determinism.py, test_advance_index.py); it forwards "
    "to Simulator.stream_pump(until), so the two stay together",
    "Simulator.__init__(obs)": "the seam tests inject an in-memory trace through "
    "(tests/test_faults.py::TestShockRescan)",
}


class _Settings(ast.NodeVisitor):
    """Collects a module's defaulted parameters (``src`` only) and, per
    callable name, the calls that pass arguments and the references
    that hand the callable on without calling it.

    A call to ``Cls(...)`` or ``super().__init__(...)`` inside a
    subclass of ``Cls`` is a call to ``Cls.__init__``; annotations,
    base-class lists and ``isinstance`` tests name a class without
    handing it on.
    """

    def __init__(self, path, collect, params, calls, refs):
        self.path, self.collect = path, collect
        self.params, self.calls, self.refs = params, calls, refs
        self.classes = []
        self.passive = set()  # ids of nodes that are no reference

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_ClassDef(self, node):
        self.passive.update(id(base) for base in node.bases)
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
            if arg is not None and arg.annotation is not None:
                self.passive.update(id(n) for n in ast.walk(arg.annotation))
        if node.returns is not None:
            self.passive.update(id(n) for n in ast.walk(node.returns))
        cls = self.classes[-1] if self.classes and node in self.classes[-1].body else None
        if self.collect:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if cls is not None and not static else 0  # self / cls
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            owner = cls.name if cls is not None else self.path.stem
            init = node.name == "__init__" and cls is not None
            callee = cls.name if init else node.name
            method = cls is not None and not init
            defaulted = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for name, position in defaulted:
                self.params.append((f"{owner}.{node.name}({name})", callee, method,
                                    name, position))
        saved, self.classes = self.classes, []
        self.generic_visit(node)
        self.classes = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self.passive.update(id(n) for n in ast.walk(node.annotation))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("isinstance", "issubclass") and node.args:
            self.passive.update(id(n) for n in ast.walk(node.args[-1]))
        if isinstance(func, ast.Name):
            names = [func.id]
        elif (isinstance(func, ast.Attribute) and func.attr == "__init__"
              and isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
              and func.value.func.id == "super" and self.classes):
            names = [b.id if isinstance(b, ast.Name) else b.attr
                     for b in self.classes[-1].bases if isinstance(b, (ast.Name, ast.Attribute))]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
        else:
            names = []
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        for name in names:
            self.calls[name].append((len(node.args), {k.arg for k in node.keywords}, starred))
        self.passive.add(id(func))
        self.generic_visit(node)

    def visit_Name(self, node):
        if id(node) not in self.passive:
            self.refs[node.id].add("name")

    def visit_Attribute(self, node):
        if id(node) not in self.passive:
            self.refs[node.attr].add("attribute")
        self.generic_visit(node)


def unset_parameters(root):
    """Qualified names (``Owner.function(parameter)``) of the defaulted
    parameters in ``root/src`` that no call in ``src``, ``examples`` or
    ``benchmarks`` passes, by keyword or by position, to a callable of
    that name.  A call through ``*`` or ``**`` passes every parameter,
    and so does handing the callable on uncalled (a registry entry, a
    callback): a method by attribute, a function or class by name."""
    params, calls = [], collections.defaultdict(list)
    refs = collections.defaultdict(set)
    for tree in ("src", "examples", "benchmarks"):
        for path in sorted(pathlib.Path(root, tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            _Settings(path, tree == "src", params, calls, refs).visit(module)
    assert len(params) > 100  # not vacuous: the walk sees the package
    unset = []
    for qualname, callee, method, name, position in params:
        handed_on = "attribute" in refs[callee] or (not method and "name" in refs[callee])
        passed = any(
            starred or name in keywords or (position is not None and position < npos)
            for npos, keywords, starred in calls[callee]
        )
        if not (handed_on or passed):
            unset.append(qualname)
    return sorted(unset)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """A setting stays settable only if code outside ``tests/`` sets it;
    one only a test turns is a module constant with today's value (the
    test patches it) or, when its default is the only behaviour, gone.
    The match is by name, like :func:`caller_less_definitions`, so a
    parameter a same-named call sets passes; ``ArtifactStore.load(mmap)``
    hid behind a local variable called ``load`` until references were
    told apart from calls."""
    assert unset_parameters(os.path.dirname(SRC)) == sorted(PARAMETER_KEEP)
    assert all(reason.strip() for reason in PARAMETER_KEEP.values())
