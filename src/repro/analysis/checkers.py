"""The REP00x checkers: this codebase's determinism failure modes, as AST rules.

Each checker is a small class with a ``code``, a path scope and a
``check(ctx)`` method returning :class:`~repro.analysis.engine.Finding`
objects.  They share one piece of real machinery: a syntactic
set-typed-ness inferencer (:class:`SetTypes`) that recognises set
displays/comprehensions, ``set()``/``frozenset()`` calls, set-annotated
names and attributes, and calls to functions whose return annotation is
set-typed — including functions defined in *other* linted modules, via
the engine's :class:`~repro.analysis.engine.ProjectTable`.  That last
hop is what catches the PR 3 bug class, where routing iterated
``LandmarkGraph.neighbors()`` sets built two modules away.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import ClassVar

from .engine import Finding, ModuleContext

#: Consumers for which iteration order provably cannot matter.  ``sum``
#: is deliberately absent: float sums are order-dependent.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "len", "min", "max", "any", "all", "set", "frozenset"}
)

_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_SEQ_ANNOTATION_NAMES = frozenset({"list", "List", "tuple", "Tuple", "Sequence"})


def _name_of(node: ast.AST) -> str | None:
    """Trailing identifier of a Name/Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def annotation_kind(node: ast.AST | None) -> str | None:
    """Classify an annotation as ``'set'``, ``'list_of_set'`` or None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
        return annotation_kind(node.left) or annotation_kind(node.right)
    if isinstance(node, ast.Subscript):
        base = _name_of(node.value)
        if base == "Optional":
            return annotation_kind(node.slice)
        if base in _SET_ANNOTATION_NAMES:
            return "set"
        if base in _SEQ_ANNOTATION_NAMES:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            if annotation_kind(inner) == "set":
                return "list_of_set"
        return None
    if _name_of(node) in _SET_ANNOTATION_NAMES:
        return "set"
    return None


def _is_str_literal_set(node: ast.AST) -> bool:
    """A set display whose every element is a string constant.

    String iteration order only varies across processes (hash
    randomisation), and the determinism contract this repo cares about
    — identical decisions per seeded run — keys everything by ints.
    REP001 therefore exempts all-str set displays, per its charter
    ("non-str keys").
    """
    return isinstance(node, ast.Set) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    )


class SetTypes:
    """Syntactic set-typed-ness inference for one module.

    Scope model: one namespace per function (parameters + local
    assignments), one per class (``self.attr`` assignments anywhere in
    the class body), one for the module.  Assignments count when the
    right-hand side is *directly* recognisable: a set display or
    comprehension, a ``set()``/``frozenset()`` call, set algebra on a
    known set, or a call to a function whose return annotation says set.
    """

    def __init__(self, ctx: ModuleContext) -> None:
        self._ctx = ctx
        self.func_kinds: dict[str, str] = {}
        self.module_scope: dict[str, str] = {}
        self.fn_scopes: dict[ast.AST, dict[str, str]] = {}
        self.class_attrs: dict[ast.AST, dict[str, str]] = {}
        self._fn_of: dict[ast.AST, ast.AST | None] = {}
        self._class_of: dict[ast.AST, ast.AST | None] = {}
        self._collect()

    # -- collection ----------------------------------------------------
    def _collect(self) -> None:
        # One breadth-first pass (``ast.walk`` order, which the binding
        # sweeps below depend on) hands every node its enclosing
        # function and class from its parent's, and picks up the return
        # annotations, parameter annotations and assignment sites.
        tree = self._ctx.tree
        self._fn_of[tree] = self._class_of[tree] = None
        assignments: list[ast.Assign | ast.AnnAssign] = []
        todo: deque[ast.AST] = deque([tree])
        while todo:
            node = todo.popleft()
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            fn = node if is_def or isinstance(node, ast.Lambda) else self._fn_of[node]
            cls = node if isinstance(node, ast.ClassDef) else self._class_of[node]
            for child in ast.iter_child_nodes(node):
                self._fn_of[child] = fn
                self._class_of[child] = cls
                todo.append(child)
            if is_def:
                kind = annotation_kind(node.returns)
                if kind:
                    self.func_kinds[node.name] = kind
                scope = self.fn_scopes.setdefault(node, {})
                args = node.args
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                    kind = annotation_kind(arg.annotation)
                    if kind:
                        scope[arg.arg] = kind
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assignments.append(node)
        # Two sweeps so later reads see earlier bindings.
        for _sweep in range(2):
            for node in assignments:
                if isinstance(node, ast.Assign):
                    kind = self.kind_of(node.value)
                    if kind:
                        for target in node.targets:
                            self._bind(target, kind, node)
                else:
                    kind = annotation_kind(node.annotation) or (
                        self.kind_of(node.value) if node.value else None
                    )
                    if kind:
                        self._bind(node.target, kind, node)

    def _bind(self, target: ast.AST, kind: str, site: ast.AST) -> None:
        if isinstance(target, ast.Name):
            fn = self._fn_of.get(site)
            if fn is not None:
                self.fn_scopes.setdefault(fn, {})[target.id] = kind
            else:
                self.module_scope[target.id] = kind
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            cls = self._class_of.get(site)
            if cls is not None:
                self.class_attrs.setdefault(cls, {})[target.attr] = kind

    # -- resolution ----------------------------------------------------
    def kind_of(self, node: ast.AST) -> str | None:
        """``'set'`` / ``'list_of_set'`` / None for an expression."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return None if _is_str_literal_set(node) else "set"
        if isinstance(node, ast.Call):
            fname = _name_of(node.func)
            if fname in ("set", "frozenset"):
                return "set"
            if fname in ("sorted", "list", "tuple"):
                return None
            local = self.func_kinds.get(fname or "")
            if local:
                return local
            project = self._ctx.project
            if fname in project.set_returning:
                return "set"
            if fname in project.list_of_set_returning:
                return "list_of_set"
            return None
        if isinstance(node, ast.Name):
            fn = self._fn_of.get(node)
            if fn is not None:
                kind = self.fn_scopes.get(fn, {}).get(node.id)
                if kind:
                    return kind
            return self.module_scope.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                cls = self._class_of.get(node)
                if cls is not None:
                    return self.class_attrs.get(cls, {}).get(node.attr)
            return None
        if isinstance(node, ast.Subscript):
            if self.kind_of(node.value) == "list_of_set":
                return "set"
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            if self.kind_of(node.left) == "set" or self.kind_of(node.right) == "set":
                return "set"
            return None
        if isinstance(node, ast.IfExp):
            return self.kind_of(node.body) or self.kind_of(node.orelse)
        return None


def _consumer_name(ctx: ModuleContext, node: ast.AST) -> str | None:
    """Name of the call directly consuming ``node``'s iteration, if any.

    Climbs through a generator-expression hop so that
    ``sorted(x for x in expr)`` counts ``sorted`` as the consumer of
    ``expr``.
    """
    parent = ctx.parent(node)
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        comp = ctx.parent(parent)
        if isinstance(comp, ast.GeneratorExp):
            node = comp
            parent = ctx.parent(comp)
        else:
            return None
    if isinstance(parent, ast.Call) and node in parent.args:
        return _name_of(parent.func)
    return None


# ----------------------------------------------------------------------
# checker base
# ----------------------------------------------------------------------
class Checker:
    """Base class: path scoping plus a finding factory."""

    code: ClassVar[str] = "REP000"
    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    #: Substring path scopes; empty means every file.  A file is in
    #: scope when any entry occurs in its posix path.
    include: ClassVar[tuple[str, ...]] = ()
    #: Files containing any of these substrings are always skipped.
    exclude: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, relpath: str) -> bool:
        path = "/" + relpath
        if any(part in path for part in self.exclude):
            return False
        if not self.include:
            return True
        return any(part in path for part in self.include)

    def finding(self, node: ast.AST, message: str, path: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )

    def check(self, ctx: ModuleContext) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# REP001: unordered iteration over sets
# ----------------------------------------------------------------------
class UnorderedSetIteration(Checker):
    code = "REP001"
    name = "unordered-set-iteration"
    description = (
        "Iterating a set/frozenset of non-str keys yields an insertion- and "
        "hash-layout-dependent order; wrap in sorted() so cold and "
        "store-warmed builds take identical paths (the PR 3 bug class)."
    )
    # Widened from the per-PR directory list to the whole tree (PR 9):
    # set iteration leaks order anywhere a decision or an artifact is
    # derived from it, not just in the modules that have bitten us.
    include = ()

    def check(self, ctx: ModuleContext) -> list[Finding]:
        types = ctx.set_types
        out: list[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            out.append(
                self.finding(
                    node,
                    f"{what} iterates a set in nondeterministic order; "
                    "wrap the set in sorted()",
                    ctx.path,
                )
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and types.kind_of(node.iter) == "set":
                flag(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if types.kind_of(gen.iter) != "set":
                        continue
                    if (
                        isinstance(node, ast.GeneratorExp)
                        and _consumer_name(ctx, gen.iter) in ORDER_INSENSITIVE_CONSUMERS
                    ):
                        continue
                    flag(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                fname = _name_of(node.func)
                if (
                    fname in ("list", "tuple")
                    and len(node.args) == 1
                    and not node.keywords
                    and types.kind_of(node.args[0]) == "set"
                ):
                    flag(node.args[0], f"{fname}() conversion")
                elif fname == "fromiter" and node.args and types.kind_of(node.args[0]) == "set":
                    flag(node.args[0], "np.fromiter()")
        return out


# ----------------------------------------------------------------------
# REP002: unseeded global-state RNG
# ----------------------------------------------------------------------
class UnseededRandom(Checker):
    code = "REP002"
    name = "unseeded-global-rng"
    description = (
        "Calls into the global random / np.random state are unseeded shared "
        "state; use an explicitly seeded np.random.default_rng(seed) instead."
    )
    exclude = ("/repro/demand/generator.py",)

    _NP_SAFE = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator"})
    _PY_SAFE = frozenset({"Random", "SystemRandom"})

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            func = node.func
            if isinstance(func.value, ast.Name) and func.value.id == "random":
                if func.attr not in self._PY_SAFE:
                    out.append(
                        self.finding(
                            node,
                            f"random.{func.attr}() uses unseeded global RNG state; "
                            "use np.random.default_rng(seed)",
                            ctx.path,
                        )
                    )
            elif (
                isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
            ):
                if func.attr not in self._NP_SAFE:
                    out.append(
                        self.finding(
                            node,
                            f"np.random.{func.attr}() uses unseeded global RNG state; "
                            "use np.random.default_rng(seed)",
                            ctx.path,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# REP003: wall-clock reads in sim/dispatch code
# ----------------------------------------------------------------------
class WallClockInSim(Checker):
    code = "REP003"
    name = "wall-clock-in-sim"
    description = (
        "time.time()/perf_counter()/datetime.now() in simulation or dispatch "
        "code makes decisions depend on host speed; simulation time comes "
        "from the event clock (obs/ is exempt — it only measures)."
    )
    exclude = ("/repro/obs/", "/repro/analysis/")

    _TIME_ATTRS = frozenset(
        {
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns", "clock_gettime",
        }
    )
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: ModuleContext) -> list[Finding]:
        # Names imported straight from the time module.
        time_aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_ATTRS:
                        time_aliases.add(alias.asname or alias.name)

        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            label: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in self._TIME_ATTRS
            ):
                label = f"time.{func.attr}()"
            elif isinstance(func, ast.Name) and func.id in time_aliases:
                label = f"{func.id}()"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in self._DATETIME_ATTRS
                and _name_of(func.value) in ("datetime", "date")
            ):
                label = f"{_name_of(func.value)}.{func.attr}()"
            if label:
                out.append(
                    self.finding(
                        node,
                        f"{label} reads the wall clock in sim/dispatch code; "
                        "decisions must depend only on the event clock",
                        ctx.path,
                    )
                )
        return out


# ----------------------------------------------------------------------
# REP004: float equality in routing/scheduling
# ----------------------------------------------------------------------
class FloatEquality(Checker):
    code = "REP004"
    name = "float-equality"
    description = (
        "== / != against a nonzero float literal in routing/scheduling code "
        "is precision-fragile; compare with a tolerance (exact-zero sentinel "
        "tests are exempt)."
    )
    # Covers the whole tree rather than the routing/scheduling
    # directories: nothing about float precision respects directory
    # boundaries.
    include = ()

    @staticmethod
    def _nonzero_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != 0.0
        )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._nonzero_float_literal(left) or self._nonzero_float_literal(right):
                    out.append(
                        self.finding(
                            node,
                            "float equality against a nonzero literal; "
                            "use an explicit tolerance",
                            ctx.path,
                        )
                    )
                    break
        return out


# ----------------------------------------------------------------------
# REP005: mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultArg(Checker):
    code = "REP005"
    name = "mutable-default-arg"
    description = (
        "A mutable default ([], {}, set()) is shared across calls and makes "
        "behaviour depend on call history; default to None and build inside."
    )

    @staticmethod
    def _is_mutable(node: ast.AST | None) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                             ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray", "defaultdict",
                                 "Counter", "deque")
        )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if self._is_mutable(default):
                    out.append(
                        self.finding(
                            default,
                            "mutable default argument is shared across calls; "
                            "use None and construct in the body",
                            ctx.path,
                        )
                    )
        return out


# ----------------------------------------------------------------------
# REP006: unordered collections fed into hashes / serialised keys
# ----------------------------------------------------------------------
class UnorderedHashInput(Checker):
    code = "REP006"
    name = "unordered-hash-input"
    description = (
        "A set or set-driven comprehension inside hash()/json.dumps()/"
        "hashlib arguments bakes iteration order into a digest; route cache "
        "keys through artifacts.canonical_json (which sorts) or sort first."
    )

    _SINK_NAMES = frozenset({"hash", "sha256", "sha1", "sha512", "md5", "blake2b",
                             "blake2s"})

    def _is_sink(self, func: ast.AST) -> str | None:
        if isinstance(func, ast.Name) and func.id in self._SINK_NAMES:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr == "dumps":
                return f"{_name_of(func.value)}.dumps"
            if isinstance(func.value, ast.Name) and func.value.id == "hashlib":
                return f"hashlib.{func.attr}"
        return None

    def check(self, ctx: ModuleContext) -> list[Finding]:
        types = ctx.set_types
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            sink = self._is_sink(node.func)
            if sink is None:
                continue
            hit: ast.AST | None = None
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                for sub in ast.walk(arg):
                    if types.kind_of(sub) == "set":
                        hit = sub
                        break
                    if isinstance(sub, ast.DictComp) and any(
                        types.kind_of(g.iter) == "set" for g in sub.generators
                    ):
                        hit = sub
                        break
                if hit is not None:
                    break
            if hit is not None:
                out.append(
                    self.finding(
                        hit,
                        f"unordered collection flows into {sink}(); iteration "
                        "order leaks into the digest — sort or use canonical_json",
                        ctx.path,
                    )
                )
        return out


# ----------------------------------------------------------------------
# REP007: bare / swallowed exceptions
# ----------------------------------------------------------------------
class SwallowedException(Checker):
    code = "REP007"
    name = "swallowed-exception"
    description = (
        "A bare except, or a broad except whose body only passes/continues, "
        "hides dispatch-loop failures as silently skipped work; catch the "
        "specific exception the callee raises."
    )

    @staticmethod
    def _is_broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        names: list[ast.AST] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        return any(_name_of(n) in ("Exception", "BaseException") for n in names)

    @staticmethod
    def _swallows(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or ellipsis
            return False
        return True

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                out.append(
                    self.finding(
                        node,
                        "bare except catches everything including KeyboardInterrupt; "
                        "name the exception",
                        ctx.path,
                    )
                )
            elif self._is_broad(node.type) and self._swallows(node.body):
                out.append(
                    self.finding(
                        node,
                        "broad except silently swallows errors; catch the specific "
                        "exception and surface the rest",
                        ctx.path,
                    )
                )
        return out


# ----------------------------------------------------------------------
# REP008: unsorted directory listings
# ----------------------------------------------------------------------
class UnsortedDirectoryListing(Checker):
    code = "REP008"
    name = "unsorted-directory-listing"
    description = (
        "os.listdir()/glob()/iterdir() order is filesystem-dependent; wrap "
        "the listing in sorted() before iterating."
    )

    _PATH_METHODS = frozenset({"glob", "rglob", "iterdir"})
    _OS_FUNCS = frozenset({"listdir", "scandir"})

    def _listing_label(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "os":
                if func.attr in self._OS_FUNCS:
                    return f"os.{func.attr}()"
                return None
            if isinstance(func.value, ast.Name) and func.value.id == "glob":
                if func.attr in ("glob", "iglob"):
                    return f"glob.{func.attr}()"
                return None
            if func.attr in self._PATH_METHODS:
                return f".{func.attr}()"
        elif isinstance(func, ast.Name) and func.id in self._OS_FUNCS:
            return f"{func.id}()"
        return None

    def check(self, ctx: ModuleContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._listing_label(node)
            if label is None:
                continue
            if _consumer_name(ctx, node) in ORDER_INSENSITIVE_CONSUMERS:
                continue
            out.append(
                self.finding(
                    node,
                    f"{label} yields entries in filesystem order; wrap in sorted()",
                    ctx.path,
                )
            )
        return out


#: Registry, in code order; the engine runs them per file in this order.
ALL_CHECKERS: tuple[Checker, ...] = (
    UnorderedSetIteration(),
    UnseededRandom(),
    WallClockInSim(),
    FloatEquality(),
    MutableDefaultArg(),
    UnorderedHashInput(),
    SwallowedException(),
    UnsortedDirectoryListing(),
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "SetTypes",
    "annotation_kind",
    "ORDER_INSENSITIVE_CONSUMERS",
]
