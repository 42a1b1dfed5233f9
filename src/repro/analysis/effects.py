"""Whole-program effect inference and the REP101/REP102 contracts.

Every function in the linted tree gets an **effect set** — which of the
six effect kinds its execution may perform, directly or through any
call it can reach:

=================  ====================================================
``UNSEEDED_RNG``   global ``random`` / ``np.random`` state (REP002's
                   patterns, applied at the leaf call)
``WALL_CLOCK``     ``time.time``/``perf_counter``/``datetime.now``
                   (REP003's patterns)
``FILESYSTEM``     ``open()``, ``os``/``shutil`` file ops, ``Path``
                   read/write methods, ``np.save``/``np.load``
``ENV``            ``os.environ`` / ``os.getenv`` reads
``NETWORK``        ``socket`` / ``urllib`` / ``requests`` traffic
``GLOBAL_MUTATION``  rebinding or mutating a module-level name from
                   inside a function
=================  ====================================================

Seeds are detected at leaf call sites, then propagated transitively
over the :mod:`~repro.analysis.callgraph` until fixpoint, carrying a
**witness chain** (who called whom down to the seeding statement) so a
violation message reads as a path, not an assertion.

Two contracts are enforced on the result:

``REP101`` — *the dispatch path is effect-free.*  Everything reachable
from a handler passed to ``subscribe(`` (the ``Simulator`` event
boundaries — found structurally, so a new event kind is covered the
moment it is wired), from any ``DispatchScheme`` ``match*`` method, and
from ``WindowLAP.build_cost_matrix`` must have an empty effect set.  The
documented timer suppressions (``# repro-lint: disable=REP003
reason=...`` at the ``perf_counter`` sites that only feed observability
metrics) drop their seeds before propagation, so the shipped tree's
dispatch path proves clean rather than being grandfathered.

``REP102`` — *fingerprints are pure.*  Any function named
``fingerprint`` must have an empty effect set: a fingerprint that reads
the clock or the filesystem can differ across equal runs, which defeats
its whole purpose.

Seed-level escapes: a seed whose line carries a valid suppression for
its per-file sibling code (REP002 for RNG, REP003 for wall clock) or
for REP101/REP102 directly is dropped.  ``repro/obs/`` and
``repro/analysis/`` are exempt from seeding entirely — observability
measures and the linter lints; neither is allowed on the dispatch path
in the first place, and the call graph shows they are not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import CallGraph, FunctionInfo, ModuleInfo, _attr_chain
from .checkers import UnseededRandom, WallClockInSim
from .engine import Finding, Suppression

__all__ = [
    "CONTRACT_CODE",
    "EFFECTS",
    "EffectReport",
    "FINGERPRINT_CODE",
    "check_effects",
    "infer_effects",
    "render_effects_report",
]

CONTRACT_CODE = "REP101"
FINGERPRINT_CODE = "REP102"

#: The effect lattice is a powerset of these six kinds (order = report order).
EFFECTS = (
    "UNSEEDED_RNG",
    "WALL_CLOCK",
    "FILESYSTEM",
    "ENV",
    "NETWORK",
    "GLOBAL_MUTATION",
)

#: Per-file sibling code whose line suppression also silences the seed.
_SEED_SIBLING_CODE = {"UNSEEDED_RNG": "REP002", "WALL_CLOCK": "REP003"}

#: Paths that never seed effects: obs/ measures, analysis/ lints, and
#: neither is reachable from the dispatch path (the graph proves it).
_SEED_EXEMPT = ("/repro/obs/", "/repro/analysis/")

_OS_FS_FUNCS = frozenset(
    {
        "remove", "rename", "makedirs", "mkdir", "rmdir", "unlink",
        "listdir", "scandir", "walk", "chdir", "symlink", "link",
        "chmod", "utime", "truncate",
    }
)
_PATH_FS_METHODS = frozenset(
    {
        "write_text", "write_bytes", "read_text", "read_bytes",
        "mkdir", "unlink", "touch", "symlink_to", "hardlink_to",
        "iterdir", "rglob",
    }
)
_NP_FS_FUNCS = frozenset({"save", "load", "savez", "savez_compressed", "savetxt", "loadtxt", "memmap"})
_NETWORK_HEADS = frozenset({"socket", "urllib", "requests"})
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "pop", "update", "setdefault", "popitem",
        "clear", "extend", "insert", "remove", "discard",
        "move_to_end", "appendleft", "popleft",
    }
)


@dataclass(frozen=True)
class Seed:
    """One primitive effect occurrence at a leaf statement."""

    effect: str
    qualname: str
    path: str
    line: int
    label: str


@dataclass
class EffectReport:
    """The inference result every contract and the report consume."""

    #: qualname -> effect kind -> (callee the effect arrived through, seed).
    effects: dict[str, dict[str, tuple[str | None, Seed]]] = field(default_factory=dict)
    seeds: list[Seed] = field(default_factory=list)
    #: REP101 contract roots actually present in the tree, sorted.
    contract_roots: list[str] = field(default_factory=list)
    #: functions named ``fingerprint``, sorted.
    fingerprint_roots: list[str] = field(default_factory=list)

    def effects_of(self, qualname: str) -> list[str]:
        """Sorted effect kinds of one function (empty = pure)."""
        return sorted(self.effects.get(qualname, ()), key=EFFECTS.index)

    def witness_chain(self, qualname: str, effect: str, limit: int = 10) -> list[str]:
        """``[qualname, ..., seeding function]`` for one effect."""
        chain = [qualname]
        current = qualname
        while len(chain) < limit:
            via, seed = self.effects[current][effect]
            if via is None:
                break
            chain.append(via)
            current = via
        return chain


# ----------------------------------------------------------------------
# seed detection
# ----------------------------------------------------------------------
def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """Nodes lexically in ``fn`` excluding nested function bodies.

    Nested defs are separate functions in the graph (linked by a
    parent -> child edge), so their seeds must not double-count here.
    """
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _bound_names(target: ast.AST) -> set[str]:
    """Names a binding target actually (re)binds.

    ``x[...] = v`` and ``x.attr = v`` mutate ``x`` but do NOT bind it —
    treating them as local bindings would hide global-mutation seeds.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _bound_names(elt)
        return out
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()


def _local_names(fn: ast.AST) -> tuple[set[str], set[str]]:
    """(locally bound names, ``global``-declared names) of one function."""
    local: set[str] = set()
    declared_global: set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            local.add(arg.arg)
        if args.vararg:
            local.add(args.vararg.arg)
        if args.kwarg:
            local.add(args.kwarg.arg)
    for node in _own_nodes(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                local |= _bound_names(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            local |= _bound_names(node.target)
        elif isinstance(node, ast.comprehension):
            local |= _bound_names(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            local |= _bound_names(node.optional_vars)
    return local - declared_global, declared_global


def _call_seed(
    node: ast.Call, time_aliases: set[str], local: set[str]
) -> tuple[str, str] | None:
    """(effect, label) of one call expression, or None.

    ``local`` holds the enclosing function's bound names: a receiver
    that is a local variable is *not* the module it happens to be named
    after (a local list called ``requests`` is not the requests
    library), so module-head patterns skip it.  Method-name patterns
    (``.write_text()``) apply regardless — path objects usually *are*
    locals.
    """
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open" and "open" not in local:
            return ("FILESYSTEM", "open()")
        if func.id in time_aliases and func.id not in local:
            return ("WALL_CLOCK", f"{func.id}()")
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    chain = _attr_chain(func)
    head = chain[0] if chain else None
    module_head = head if head is not None and head not in local else None
    # UNSEEDED_RNG (REP002 patterns).
    if isinstance(func.value, ast.Name) and func.value.id == "random" and module_head:
        if attr not in UnseededRandom._PY_SAFE and attr != "seed":
            return ("UNSEEDED_RNG", f"random.{attr}()")
        return None
    if (
        isinstance(func.value, ast.Attribute)
        and func.value.attr == "random"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("np", "numpy")
        and func.value.value.id not in local
    ):
        if attr not in UnseededRandom._NP_SAFE:
            return ("UNSEEDED_RNG", f"np.random.{attr}()")
        return None
    # WALL_CLOCK (REP003 patterns).
    if module_head == "time" and attr in WallClockInSim._TIME_ATTRS:
        return ("WALL_CLOCK", f"time.{attr}()")
    if attr in WallClockInSim._DATETIME_ATTRS and module_head in ("datetime", "date"):
        return ("WALL_CLOCK", f"{module_head}.{attr}()")
    # FILESYSTEM.
    if module_head == "os" and len(chain) == 2 and attr in _OS_FS_FUNCS:
        return ("FILESYSTEM", f"os.{attr}()")
    if module_head == "os" and len(chain) == 2 and attr == "getenv":
        return ("ENV", "os.getenv()")
    if module_head == "shutil":
        return ("FILESYSTEM", f"shutil.{attr}()")
    if module_head in ("np", "numpy") and len(chain) == 2 and attr in _NP_FS_FUNCS:
        return ("FILESYSTEM", f"{module_head}.{attr}()")
    if attr in _PATH_FS_METHODS:
        return ("FILESYSTEM", f".{attr}()")
    # NETWORK.
    if module_head in _NETWORK_HEADS:
        return ("NETWORK", f"{module_head}.{attr}()")
    if attr in ("urlopen", "urlretrieve"):
        return ("NETWORK", f"{attr}()")
    return None


def _seeds_of(fn: FunctionInfo, mod: ModuleInfo, time_aliases: set[str]) -> list[Seed]:
    """Primitive effects performed directly inside one function body."""
    out: list[Seed] = []
    local, declared_global = _local_names(fn.node)
    mutable_globals = (mod.module_globals - local) | declared_global

    def seed(effect: str, node: ast.AST, label: str) -> None:
        out.append(
            Seed(
                effect=effect,
                qualname=fn.qualname,
                path=fn.path,
                line=getattr(node, "lineno", fn.lineno),
                label=label,
            )
        )

    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Call):
            hit = _call_seed(node, time_aliases, local)
            if hit is not None:
                seed(hit[0], node, hit[1])
            # Mutating method call on a module-level name.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in mutable_globals
                and func.attr in _MUTATING_METHODS
            ):
                seed("GLOBAL_MUTATION", node, f"{func.value.id}.{func.attr}()")
        elif isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if (
                chain == ["os", "environ"]
                and "os" not in local
            ):
                seed("ENV", node, "os.environ")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    seed("GLOBAL_MUTATION", node, f"global {target.id} rebound")
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_globals
                ):
                    seed("GLOBAL_MUTATION", node, f"{target.value.id}[...] assigned")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_globals
                ):
                    seed("GLOBAL_MUTATION", node, f"del {target.value.id}[...]")
    return out


def _time_aliases(mod: ModuleInfo) -> set[str]:
    """Names ``from time import ...`` bound in one module (REP003 rule)."""
    out: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in WallClockInSim._TIME_ATTRS:
                    out.add(alias.asname or alias.name)
    return out


def _seed_suppressed(
    seed: Seed, suppressions: dict[str, dict[int, Suppression]]
) -> bool:
    sup = suppressions.get(seed.path, {}).get(seed.line)
    if sup is None or not sup.reason:
        return False
    allowed = {CONTRACT_CODE, FINGERPRINT_CODE}
    sibling = _SEED_SIBLING_CODE.get(seed.effect)
    if sibling is not None:
        allowed.add(sibling)
    return bool(sup.codes & allowed)


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
def infer_effects(
    graph: CallGraph, suppressions: dict[str, dict[int, Suppression]]
) -> EffectReport:
    """Seed, propagate to fixpoint, and locate the contract roots."""
    report = EffectReport()
    alias_cache = {mod.path: _time_aliases(mod) for mod in graph.modules.values()}
    for qualname, fn in graph.functions.items():
        fnpath = "/" + fn.path
        if any(part in fnpath for part in _SEED_EXEMPT):
            continue
        mod = graph.modules[fn.path]
        for seed in _seeds_of(fn, mod, alias_cache[fn.path]):
            if _seed_suppressed(seed, suppressions):
                continue
            report.seeds.append(seed)
            report.effects.setdefault(qualname, {}).setdefault(
                seed.effect, (None, seed)
            )

    reverse: dict[str, list[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            reverse.setdefault(callee, []).append(caller)

    worklist: list[tuple[str, str]] = [
        (qual, effect)
        for qual, effs in sorted(report.effects.items())
        for effect in sorted(effs)
    ]
    while worklist:
        qual, effect = worklist.pop()
        _via, seed = report.effects[qual][effect]
        for caller in reverse.get(qual, ()):
            caller_effects = report.effects.setdefault(caller, {})
            if effect in caller_effects:
                continue
            caller_effects[effect] = (qual, seed)
            worklist.append((caller, effect))

    report.contract_roots = sorted(_contract_roots(graph))
    report.fingerprint_roots = sorted(
        qual for qual, fn in graph.functions.items() if fn.name == "fingerprint"
    )
    return report


def _contract_roots(graph: CallGraph) -> set[str]:
    """The REP101 effect-free roots present in the linted tree."""
    roots: set[str] = set(graph.subscribed_handlers)
    scheme_classes = graph.subclasses_of("DispatchScheme")
    scheme_classes.update(graph.classes_by_name.get("DispatchScheme", []))
    for qual, fn in graph.functions.items():
        if fn.cls is None:
            continue
        cls_short = fn.cls.rsplit(".", 1)[-1]
        if fn.cls in scheme_classes and fn.name.startswith("match"):
            roots.add(qual)
        elif cls_short == "WindowLAP" and fn.name == "build_cost_matrix":
            roots.add(qual)
    return roots


# ----------------------------------------------------------------------
# the checker and the report
# ----------------------------------------------------------------------
def _violation(
    report: EffectReport, graph: CallGraph, root: str, code: str, contract: str
) -> list[Finding]:
    fn = graph.functions[root]
    out: list[Finding] = []
    for effect in report.effects_of(root):
        chain = report.witness_chain(root, effect)
        _via, seed = report.effects[root][effect]
        path_str = " -> ".join(chain)
        out.append(
            Finding(
                path=fn.path,
                line=fn.lineno,
                col=1,
                code=code,
                message=(
                    f"{contract}: {effect} reachable via {path_str} "
                    f"(seed: {seed.label} at {seed.path}:{seed.line})"
                ),
            )
        )
    return out


def check_effects(
    graph: CallGraph, suppressions: dict[str, dict[int, Suppression]]
) -> list[Finding]:
    """REP101 + REP102 findings over the whole program."""
    report = infer_effects(graph, suppressions)
    out: list[Finding] = []
    for root in report.contract_roots:
        out.extend(
            _violation(report, graph, root, CONTRACT_CODE, "dispatch path must be effect-free")
        )
    for root in report.fingerprint_roots:
        out.extend(
            _violation(report, graph, root, FINGERPRINT_CODE, "fingerprint() must be pure")
        )
    return out


def render_effects_report(
    graph: CallGraph, suppressions: dict[str, dict[int, Suppression]]
) -> str:
    """The human-readable ``repro lint effects`` report."""
    report = infer_effects(graph, suppressions)
    lines: list[str] = []
    lines.append("effect contracts")
    lines.append("================")
    for root in report.contract_roots + report.fingerprint_roots:
        effects = report.effects_of(root)
        status = "PURE" if not effects else ",".join(effects)
        lines.append(f"  {status:<14} {root}")
    lines.append("")
    lines.append("effect seeds by kind")
    lines.append("====================")
    by_kind: dict[str, list[Seed]] = {}
    for seed in report.seeds:
        by_kind.setdefault(seed.effect, []).append(seed)
    for kind in EFFECTS:
        seeds = sorted(by_kind.get(kind, []), key=lambda s: (s.path, s.line))
        lines.append(f"  {kind}: {len(seeds)}")
        for seed in seeds:
            lines.append(f"    {seed.path}:{seed.line}: {seed.label} in {seed.qualname}")
    lines.append("")
    impure = sorted(q for q in report.effects if q in graph.functions)
    lines.append(f"functions with effects: {len(impure)} of {len(graph.functions)}")
    return "\n".join(lines)
