"""Whole-program call-graph construction for the deep lint tier.

The per-file checkers (REP001..REP008) see one module at a time; every
determinism bug this repo has shipped and later fixed crossed module
boundaries (the PR 3 landmark-adjacency order leak, the PR 6 clock
corruption).  This module builds the structure the cross-module
checker (:mod:`.effects`) walks: a **module-qualified call graph** over
every linted file.

Resolution is deliberately layered, most precise first:

1. **Direct names** — ``f(...)`` resolves to the module's own ``f`` or
   to the binding a ``from X import f`` / ``import X as m`` brought in.
2. **Typed attributes** — ``self._kernel.run(...)`` resolves through a
   per-class attribute-type table inferred from ``self.attr =
   ClassName(...)`` constructor assignments and from parameter
   annotations flowing into ``self.attr = param``.  This is what keeps
   ``Simulator._kernel.run`` from aliasing every ``run`` in the tree.
3. **Class-attribution heuristic** — ``self.m(...)`` binds to the
   enclosing class's ``m``, else to an ancestor's, and *additionally*
   to every project subclass override (a base-class template method
   calling an abstract hook reaches all implementations).
4. **CHA by name** — a call ``obj.m(...)`` with no better information
   links to every project *method* named ``m`` (never to module-level
   functions, and never for names on the builtin-collection blocklist
   such as ``get``/``append``/``items``, which would alias dict/list
   traffic onto project classes).

Two indirections that defeat syntactic resolution are modelled
explicitly because the dispatch path runs through them:

* the **scheme registry** — ``SCHEME_REGISTRY = {...SchemeInfo(...,
  factory)}``: callers of ``.factory(...)`` or ``make_scheme(...)``
  gain edges to every registered factory;
* **event subscriptions** — ``kernel.subscribe(KIND, handler)`` hands
  ``handler`` to the kernel's dispatch loop, which no syntactic edge
  reaches; every such handler is recorded as an **entry point**
  (:attr:`CallGraph.subscribed_handlers`) and the effect contracts
  take them as roots.

The result over-approximates reachability (that is the point: the
effect contracts are "nothing effectful is reachable", so missing
edges would be unsound) while the typed layers keep the
over-approximation small enough for an empty baseline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "build_call_graph",
    "module_name_for",
]

#: Attribute names never resolved by CHA-by-name: they are endemic on
#: builtin collections and would alias every dict/list/set call onto
#: any project class that happens to define one.
_CHA_BLOCKLIST = frozenset(
    {
        "get", "items", "keys", "values", "append", "add", "pop", "update",
        "clear", "copy", "count", "index", "sort", "remove", "extend",
        "insert", "setdefault", "popitem", "discard", "join", "split",
        "strip", "read", "write", "close", "open", "format", "encode",
        "decode", "startswith", "endswith", "lower", "upper", "replace",
    }
)


def module_name_for(relpath: str) -> str:
    """Dotted module name of a linted file path.

    Anchored at the last ``repro/`` component when present (so
    ``src/repro/sim/engine.py`` and a fixture tree's
    ``repro/sim/engine.py`` agree); ``__init__.py`` maps to its
    package.
    """
    path = relpath.replace("\\", "/")
    marker = path.rfind("repro/")
    if marker >= 0:
        path = path[marker:]
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.strip("/").replace("/", ".")


@dataclass
class FunctionInfo:
    """One function or method definition in the linted tree."""

    qualname: str
    module: str
    path: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    lineno: int


@dataclass
class ModuleInfo:
    """One parsed module plus its import environment."""

    path: str
    module: str
    tree: ast.Module
    #: local name -> dotted module it aliases (``import x.y as z``).
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified imported symbol (``from m import f``).
    import_symbols: dict[str, str] = field(default_factory=dict)
    #: names assigned at module scope (the GLOBAL_MUTATION universe).
    module_globals: set[str] = field(default_factory=set)


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class CallGraph:
    """The program model every deep checker consumes."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo for every def in the tree.
        self.functions: dict[str, FunctionInfo] = {}
        #: bare method name -> qualnames (methods only; CHA fallback).
        self.methods_by_name: dict[str, list[str]] = {}
        #: class qualname -> direct base-class *names* (unresolved).
        self.class_bases: dict[str, list[str]] = {}
        #: class bare name -> class qualnames.
        self.classes_by_name: dict[str, list[str]] = {}
        #: (class qualname, attr) -> class qualname of the attr's type.
        self.attr_types: dict[tuple[str, str], str] = {}
        #: caller qualname -> callee qualnames.
        self.edges: dict[str, set[str]] = {}
        #: qualnames of every function passed to a ``.subscribe(`` call.
        self.subscribed_handlers: list[str] = []
        #: registry factory function qualnames (scheme indirection).
        self.registry_factories: list[str] = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> set[str]:
        """Direct callees of one function (empty when unknown)."""
        return self.edges.get(qualname, set())

    def reachable(self, roots: list[str]) -> set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            stack.extend(self.edges.get(fn, ()))
        return seen

    def subclasses_of(self, class_name: str) -> set[str]:
        """Project classes inheriting (transitively) a class *name*."""
        out: set[str] = set()
        changed = True
        while changed:
            changed = False
            for cls, bases in self.class_bases.items():
                if cls in out:
                    continue
                for base in bases:
                    base_short = base.rsplit(".", 1)[-1]
                    if base_short == class_name or any(
                        parent.rsplit(".", 1)[-1] == base_short
                        for parent in out
                    ):
                        out.add(cls)
                        changed = True
                        break
        return out

    def methods_of(self, class_qual: str) -> dict[str, str]:
        """Bare method name -> qualname for one class's own defs."""
        prefix = class_qual + "."
        return {
            info.name: qual
            for qual, info in self.functions.items()
            if qual.startswith(prefix) and info.cls is not None
            and qual.count(".", len(prefix)) == 0
        }


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build_call_graph(parsed: list[tuple[str, ast.Module]]) -> CallGraph:
    """Build the program model from ``[(relpath, tree), ...]``."""
    graph = CallGraph()
    for relpath, tree in parsed:
        _collect_module(graph, relpath, tree)
    for info in graph.modules.values():
        _collect_defs(graph, info)
    for info in graph.modules.values():
        _collect_attr_types(graph, info)
        _collect_registry(graph, info)
    for info in graph.modules.values():
        _collect_edges(graph, info)
    _collect_subscriptions(graph)
    _wire_registry_indirection(graph)
    return graph


def _collect_module(graph: CallGraph, relpath: str, tree: ast.Module) -> None:
    info = ModuleInfo(path=relpath, module=module_name_for(relpath), tree=tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.import_modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            base = node.module
            if node.level:
                # Relative import: anchor inside the package of this module.
                pkg_parts = info.module.split(".")
                # level=1 strips the module leaf, deeper levels strip packages.
                anchor = pkg_parts[: len(pkg_parts) - node.level]
                base = ".".join(anchor + [node.module])
            for alias in node.names:
                info.import_symbols[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            pkg_parts = info.module.split(".")
            anchor = ".".join(pkg_parts[: len(pkg_parts) - node.level])
            for alias in node.names:
                info.import_modules[alias.asname or alias.name] = (
                    f"{anchor}.{alias.name}" if anchor else alias.name
                )
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.module_globals.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.module_globals.add(stmt.target.id)
    graph.modules[info.path] = info


def _collect_defs(graph: CallGraph, info: ModuleInfo) -> None:
    """Register every def/class with module-qualified names."""

    def visit(body: list[ast.stmt], scope: str, cls: str | None) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{scope}.{stmt.name}"
                fn = FunctionInfo(
                    qualname=qual,
                    module=info.module,
                    path=info.path,
                    name=stmt.name,
                    cls=cls,
                    node=stmt,
                    lineno=stmt.lineno,
                )
                graph.functions[qual] = fn
                if cls is not None:
                    graph.methods_by_name.setdefault(stmt.name, []).append(qual)
                visit(stmt.body, qual, None)
            elif isinstance(stmt, ast.ClassDef):
                cqual = f"{scope}.{stmt.name}"
                graph.class_bases[cqual] = [
                    chain[-1]
                    for base in stmt.bases
                    if (chain := _attr_chain(base)) is not None
                ]
                graph.classes_by_name.setdefault(stmt.name, []).append(cqual)
                visit(stmt.body, cqual, cqual)
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit(getattr(stmt, "body", []), scope, cls)
                visit(getattr(stmt, "orelse", []), scope, cls)

    visit(info.tree.body, info.module, None)


def _resolve_class_name(graph: CallGraph, info: ModuleInfo, name: str) -> str | None:
    """Class qualname a bare name refers to inside one module."""
    local = f"{info.module}.{name}"
    if local in graph.class_bases:
        return local
    symbol = info.import_symbols.get(name)
    if symbol is not None and symbol in graph.class_bases:
        return symbol
    candidates = graph.classes_by_name.get(name, [])
    if len(candidates) == 1:
        return candidates[0]
    return None


def _collect_attr_types(graph: CallGraph, info: ModuleInfo) -> None:
    """Infer ``self.attr`` types from constructor calls and annotations."""
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls_qual = None
        for qual in graph.classes_by_name.get(node.name, []):
            if graph.modules.get(info.path) and qual.startswith(info.module + "."):
                cls_qual = qual
                break
        if cls_qual is None:
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types: dict[str, str] = {}
            for arg in (
                list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
            ):
                ann = arg.annotation
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    try:
                        ann = ast.parse(ann.value, mode="eval").body
                    except SyntaxError:
                        ann = None
                if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
                    ann = ann.left  # X | None
                chain = _attr_chain(ann) if ann is not None else None
                if chain:
                    resolved = _resolve_class_name(graph, info, chain[-1])
                    if resolved is not None:
                        param_types[arg.arg] = resolved
            for sub in ast.walk(fn):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    value = sub.value
                    typed: str | None = None
                    if isinstance(value, ast.Call):
                        chain = _attr_chain(value.func)
                        if chain:
                            typed = _resolve_class_name(graph, info, chain[-1])
                    elif isinstance(value, ast.Name):
                        typed = param_types.get(value.id)
                    if typed is not None:
                        graph.attr_types.setdefault((cls_qual, target.attr), typed)


def _collect_registry(graph: CallGraph, info: ModuleInfo) -> None:
    """Record the scheme-registry factories (``SchemeInfo(..., factory)``)."""
    for node in ast.walk(info.tree):
        if not (
            isinstance(node, ast.Call)
            and _attr_chain(node.func) is not None
            and _attr_chain(node.func)[-1] == "SchemeInfo"
        ):
            continue
        factory: ast.AST | None = None
        if len(node.args) >= 3:
            factory = node.args[2]
        for kw in node.keywords:
            if kw.arg == "factory":
                factory = kw.value
        if isinstance(factory, ast.Name):
            qual = f"{info.module}.{factory.id}"
            if qual in graph.functions:
                graph.registry_factories.append(qual)
            else:
                symbol = info.import_symbols.get(factory.id)
                if symbol in graph.functions:
                    graph.registry_factories.append(symbol)


def _method_targets(graph: CallGraph, cls_qual: str, name: str) -> list[str]:
    """``self.name`` targets: own def, ancestors', and subclass overrides."""
    out: list[str] = []
    own = graph.methods_of(cls_qual).get(name)
    if own is not None:
        out.append(own)
    # Ancestors (by base-class name resolution).
    seen_classes = {cls_qual}
    frontier = [cls_qual]
    while frontier:
        current = frontier.pop()
        for base in graph.class_bases.get(current, []):
            for cand in graph.classes_by_name.get(base, []):
                if cand in seen_classes:
                    continue
                seen_classes.add(cand)
                frontier.append(cand)
                inherited = graph.methods_of(cand).get(name)
                if inherited is not None:
                    out.append(inherited)
    # Subclass overrides (virtual dispatch from a base-class template).
    short = cls_qual.rsplit(".", 1)[-1]
    for sub in sorted(graph.subclasses_of(short)):
        override = graph.methods_of(sub).get(name)
        if override is not None:
            out.append(override)
    return out


def _collect_edges(graph: CallGraph, info: ModuleInfo) -> None:
    """Resolve every call inside every function of one module."""
    for qual, fn in graph.functions.items():
        if fn.path != info.path:
            continue
        edges = graph.edges.setdefault(qual, set())
        # A nested def is effectively part of its parent's behaviour
        # (builders, callbacks): link parent -> child.
        for stmt in ast.walk(fn.node):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not fn.node
            ):
                nested = f"{qual}.{stmt.name}"
                if nested in graph.functions:
                    edges.add(nested)
        for call in _calls_in(fn.node):
            for target in _resolve_call(graph, info, fn, call):
                edges.add(target)


def _calls_in(fn: ast.AST) -> list[ast.Call]:
    """Every call expression lexically inside one function body."""
    return [node for node in ast.walk(fn) if isinstance(node, ast.Call)]


def _resolve_call(
    graph: CallGraph, info: ModuleInfo, fn: FunctionInfo, call: ast.Call
) -> list[str]:
    func = call.func
    # f(...) — module-local, imported symbol, or nested def.
    if isinstance(func, ast.Name):
        nested = f"{fn.qualname}.{func.id}"
        if nested in graph.functions:
            return [nested]
        if fn.cls is not None:
            sibling = f"{fn.cls}.{func.id}"
            if sibling in graph.functions:
                return [sibling]
        local = f"{info.module}.{func.id}"
        if local in graph.functions:
            return [local]
        symbol = info.import_symbols.get(func.id)
        if symbol is not None:
            if symbol in graph.functions:
                return [symbol]
            # ``from x import ClassName`` then ``ClassName(...)``: the
            # constructor call reaches ``ClassName.__init__``.
            init = f"{symbol}.__init__"
            if init in graph.functions:
                return [init]
        resolved_cls = _resolve_class_name(graph, info, func.id)
        if resolved_cls is not None:
            init = f"{resolved_cls}.__init__"
            if init in graph.functions:
                return [init]
        return []
    if not isinstance(func, ast.Attribute):
        return []
    attr = func.attr
    receiver = func.value
    # self.m(...) — class-attribution heuristic.
    if isinstance(receiver, ast.Name) and receiver.id == "self" and fn.cls is not None:
        targets = _method_targets(graph, fn.cls, attr)
        if targets:
            return targets
    # self.attr.m(...) — typed-attribute resolution.
    if (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
        and fn.cls is not None
    ):
        typed = graph.attr_types.get((fn.cls, receiver.attr))
        if typed is not None:
            targets = _method_targets(graph, typed, attr)
            if targets:
                return targets
    # module_alias.f(...) — imported module attribute.
    if isinstance(receiver, ast.Name):
        module = info.import_modules.get(receiver.id)
        if module is not None:
            qual = f"{module}.{attr}"
            if qual in graph.functions:
                return [qual]
            init = f"{qual}.__init__"
            if init in graph.functions:
                return [init]
            return []
    # CHA by name: every project *method* called ``attr``.
    if attr in _CHA_BLOCKLIST:
        return []
    return list(graph.methods_by_name.get(attr, []))


# ----------------------------------------------------------------------
# event-subscription and registry indirection
# ----------------------------------------------------------------------
def _collect_subscriptions(graph: CallGraph) -> None:
    """Record every ``x.subscribe(kind, handler)`` handler as an entry point."""
    for fn in graph.functions.values():
        info = graph.modules[fn.path]
        for call in _calls_in(fn.node):
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "subscribe"):
                continue
            if len(call.args) < 2:
                continue
            handler = call.args[1]
            if (
                isinstance(handler, ast.Attribute)
                and isinstance(handler.value, ast.Name)
                and handler.value.id == "self"
                and fn.cls is not None
            ):
                graph.subscribed_handlers.extend(
                    _method_targets(graph, fn.cls, handler.attr)
                )
            elif isinstance(handler, ast.Name):
                local = f"{info.module}.{handler.id}"
                if local in graph.functions:
                    graph.subscribed_handlers.append(local)


def _wire_registry_indirection(graph: CallGraph) -> None:
    """Callers of ``.factory(...)`` / ``make_scheme(...)`` reach every factory."""
    if not graph.registry_factories:
        return
    for qual, fn in graph.functions.items():
        for call in _calls_in(fn.node):
            func = call.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name in ("factory", "make_scheme"):
                graph.edges.setdefault(qual, set()).update(graph.registry_factories)
