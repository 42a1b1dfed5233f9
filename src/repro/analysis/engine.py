"""The ``repro lint`` engine: file walking, suppressions, output.

The engine is deliberately small: it parses every ``.py`` file once,
hands the tree (plus a little cross-module context) to each registered
checker, filters the resulting findings through per-line suppressions,
and renders the survivors as human-readable lines or JSON.  The process
exits nonzero iff any finding survives.

Suppression syntax (same physical line as the finding)::

    risky_call()  # repro-lint: disable=REP003 reason=metrics only

A suppression without a ``reason=`` is ignored — the finding still
fires — so every silenced warning documents why it is safe.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkers import SetTypes

#: Engine-level diagnostic code for files that fail to parse.
PARSE_ERROR_CODE = "REP000"

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*disable=(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
    r"(?:\s+reason=(?P<reason>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for stable output."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``path:line:col: CODE message`` (clickable in most editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro-lint: disable=...`` pragma."""

    line: int
    codes: frozenset[str]
    reason: str


@dataclass
class LintResult:
    """Everything one lint run produced, pre-partitioned."""

    new: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """0 when no finding survived suppression."""
        return 1 if self.new else 0


# ----------------------------------------------------------------------
# file discovery and per-file context
# ----------------------------------------------------------------------
def iter_python_files(paths: list[str]) -> list[Path]:
    """Every ``.py`` under ``paths``, in sorted (deterministic) order."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py") if q.is_file()))
        elif p.is_file():
            out.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    seen: dict[Path, None] = {}
    for p in out:
        seen.setdefault(p, None)
    return list(seen)


def _relpath(path: Path) -> str:
    """Posix path relative to the CWD when possible (stable output)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Per-line suppression pragmas, found via the tokenizer.

    Using real COMMENT tokens (rather than a regex over raw lines)
    means pragma-looking text inside string literals never counts.
    """
    out: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            codes = frozenset(c.strip() for c in m.group("codes").split(","))
            reason = (m.group("reason") or "").strip()
            out[tok.start[0]] = Suppression(line=tok.start[0], codes=codes, reason=reason)
    except tokenize.TokenError:
        pass
    return out


class ModuleContext:
    """Everything a checker needs about one parsed module."""

    def __init__(self, path: str, tree: ast.Module, source: str, project: "ProjectTable") -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self.project = project
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Syntactic parent of ``node`` (None for the module root)."""
        return self.parents.get(node)

    @cached_property
    def set_types(self) -> "SetTypes":
        """The module's set-typed-ness inference, built once for every
        checker that asks (REP001 and REP006)."""
        from .checkers import SetTypes  # local import: cycle guard

        return SetTypes(self)


class ProjectTable:
    """Cross-module facts collected in a first pass over every file.

    Currently: the names of functions/methods whose *return annotation*
    is set-typed (or a list of sets).  Checkers use it to recognise
    ``obj.method(...)`` calls that hand back unordered collections even
    when the definition lives in another module — exactly how the PR 3
    landmark-adjacency bug leaked set iteration into routing.
    """

    def __init__(self) -> None:
        self.set_returning: set[str] = set()
        self.list_of_set_returning: set[str] = set()

    def collect(self, tree: ast.Module) -> None:
        """Record set-returning callables defined in ``tree``."""
        from .checkers import annotation_kind  # local import: cycle guard

        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                kind = annotation_kind(node.returns)
                if kind == "set":
                    self.set_returning.add(node.name)
                elif kind == "list_of_set":
                    self.list_of_set_returning.add(node.name)


# ----------------------------------------------------------------------
# the lint run
# ----------------------------------------------------------------------
def lint_paths(paths: list[str]) -> LintResult:
    """Run every checker over every file under ``paths``.

    Raises ``FileNotFoundError`` for a path that does not exist, before
    any checker runs.
    """
    from .checkers import ALL_CHECKERS

    files = iter_python_files(paths)
    result = LintResult(files_checked=len(files))

    parsed: list[tuple[str, ast.Module, str]] = []
    raw: list[Finding] = []
    for file in files:
        rel = _relpath(file)
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1),
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        parsed.append((rel, tree, source))

    project = ProjectTable()
    for _rel, tree, _source in parsed:
        project.collect(tree)

    suppression_map = {rel: parse_suppressions(source) for rel, _tree, source in parsed}

    for rel, tree, source in parsed:
        ctx = ModuleContext(rel, tree, source, project)
        suppressions = suppression_map[rel]
        for checker in ALL_CHECKERS:
            if not checker.applies_to(rel):
                continue
            for finding in checker.check(ctx):
                sup = suppressions.get(finding.line)
                if sup is not None and finding.code in sup.codes and sup.reason:
                    result.suppressed.append(finding)
                else:
                    raw.append(finding)

    result.new = sorted(raw)
    return result


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism/invariant lint for the mT-Share reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--list-checkers", action="store_true",
                        help="print the checker catalog and exit")
    return parser


def _print_catalog() -> None:
    from .checkers import ALL_CHECKERS

    for checker in ALL_CHECKERS:
        print(f"{checker.code}  {checker.name}")
        print(f"       {checker.description}")


def main(argv: list[str] | None = None) -> int:
    """Entry point shared by ``repro lint`` and ``python -m repro.analysis``."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    if args.list_checkers:
        _print_catalog()
        return 0

    try:
        result = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "version": 2,
            "files_checked": result.files_checked,
            "new": [f.as_dict() for f in result.new],
            "suppressed": [f.as_dict() for f in result.suppressed],
        }
        print(json.dumps(payload, indent=2))
        return result.exit_code

    for finding in result.new:
        print(finding.render())
    print(
        f"repro lint: {len(result.new)} new, "
        f"{len(result.suppressed)} suppressed across {result.files_checked} files"
    )
    return result.exit_code
