"""The ``repro lint`` engine: file walking, suppressions, baselines, output.

The engine is deliberately small: it parses every ``.py`` file once,
hands the tree (plus a little cross-module context) to each registered
checker, filters the resulting findings through per-line suppressions
and the committed baseline, and renders the survivors as human-readable
lines or JSON.  The process exits nonzero iff *new* (non-baselined)
findings remain.

Suppression syntax (same physical line as the finding)::

    risky_call()  # repro-lint: disable=REP003 reason=metrics only

A suppression without a ``reason=`` is ignored — the finding still
fires — so every silenced warning documents why it is safe.

Baseline files are JSON (``{"version": 1, "findings": [...]}``) keyed
by ``(path, code, message)`` with an occurrence count, so grandfathered
findings survive unrelated line drift but resurface when the code is
touched in a way that changes the message or adds occurrences.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkers import Checker, SetTypes

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

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Line-insensitive identity used to match baseline entries."""
        return (self.path, self.code, self.message)

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
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """0 when no new findings survived suppression and baseline."""
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
    """Posix path relative to the CWD when possible (stable baselines)."""
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
# baseline handling
# ----------------------------------------------------------------------
class BaselineError(ValueError):
    """The baseline file exists but is not a lint baseline."""


def load_baseline(path: Path | None) -> Counter:
    """Baseline entry counts keyed by ``(path, code, message)``.

    A missing file is an empty baseline, so a fresh checkout with no
    grandfathered findings needs no baseline at all.
    """
    counts: Counter = Counter()
    if path is None or not path.is_file():
        return counts
    try:
        data = json.loads(path.read_text())
        if data["version"] != 1:
            raise ValueError(f"version {data['version']!r}, expected 1")
        for entry in data["findings"]:
            key = (str(entry["path"]), str(entry["code"]), str(entry["message"]))
            counts[key] += int(entry.get("count", 1))
    except (ValueError, LookupError, TypeError) as exc:
        # The file comes from outside the program: whatever is wrong
        # with it is one kind of error to the caller.
        raise BaselineError(
            f"{path} is not a lint baseline: {type(exc).__name__}: {exc}"
        ) from exc
    return counts


def write_baseline(findings: list[Finding], path: Path) -> None:
    """Persist ``findings`` as the new baseline (sorted, counted)."""
    counts: Counter = Counter(f.baseline_key for f in findings)
    entries = [
        {"path": p, "code": c, "message": m, "count": n}
        for (p, c, m), n in sorted(counts.items())
    ]
    path.write_text(json.dumps({"version": 1, "findings": entries}, indent=2) + "\n")


# ----------------------------------------------------------------------
# the lint run
# ----------------------------------------------------------------------
def lint_paths(
    paths: list[str],
    checkers: "list[Checker] | None" = None,
    baseline_path: Path | None = None,
) -> LintResult:
    """Run every checker over every file under ``paths``.

    Raises ``FileNotFoundError`` for a path that does not exist and
    :class:`BaselineError` for a baseline file that is not one, both
    before any checker runs.
    """
    from .checkers import ALL_CHECKERS

    active = list(ALL_CHECKERS) if checkers is None else list(checkers)
    files = iter_python_files(paths)
    budget = load_baseline(baseline_path)
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
        for checker in active:
            if not checker.applies_to(rel):
                continue
            for finding in checker.check(ctx):
                sup = suppressions.get(finding.line)
                if sup is not None and finding.code in sup.codes and sup.reason:
                    result.suppressed.append(finding)
                else:
                    raw.append(finding)

    for finding in sorted(raw):
        if budget[finding.baseline_key] > 0:
            budget[finding.baseline_key] -= 1
            result.baselined.append(finding)
        else:
            result.new.append(finding)
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
    parser.add_argument("--baseline", default="lint-baseline.json", metavar="PATH",
                        help="baseline file of grandfathered findings "
                             "(default: lint-baseline.json; missing file = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report every finding as new")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current findings and exit 0")
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

    baseline = None if args.no_baseline else Path(args.baseline)
    try:
        result = lint_paths(args.paths, baseline_path=baseline)
    except (FileNotFoundError, BaselineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        target = Path(args.baseline)
        write_baseline(result.new + result.baselined, target)
        print(f"baseline written: {target} "
              f"({len(result.new) + len(result.baselined)} findings)")
        return 0

    if args.format == "json":
        payload = {
            "version": 1,
            "files_checked": result.files_checked,
            "new": [f.as_dict() for f in result.new],
            "baselined": [f.as_dict() for f in result.baselined],
            "suppressed": [f.as_dict() for f in result.suppressed],
        }
        print(json.dumps(payload, indent=2))
        return result.exit_code

    for finding in result.new:
        print(finding.render())
    print(
        f"repro lint: {len(result.new)} new, {len(result.baselined)} baselined, "
        f"{len(result.suppressed)} suppressed across {result.files_checked} files"
    )
    return result.exit_code
