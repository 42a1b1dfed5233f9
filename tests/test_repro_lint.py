"""The ``repro lint`` analyzer: per-checker fixtures, suppressions, baseline.

Each checker gets (at least) a true-positive fixture, a suppressed
fixture and a clean fixture.  Fixture files are written under a
``repro/<pkg>/`` directory inside ``tmp_path`` so the path-scoped
checkers (REP001, REP002, REP003, REP004) see the package layout they
key on.  The final tests assert the shipped tree itself lints clean.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_CHECKERS, lint_paths, main
from repro.analysis.engine import (
    PARSE_ERROR_CODE,
    parse_suppressions,
    write_baseline,
)

ROOT = Path(__file__).resolve().parents[1]


def lint_source(tmp_path, relfile: str, source: str, baseline_path=None):
    """Write ``source`` at ``tmp_path/relfile`` and lint the tree."""
    target = tmp_path / relfile
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], baseline_path=baseline_path)


def new_codes(result) -> list[str]:
    return [f.code for f in result.new]


# ----------------------------------------------------------------------
# REP001: unordered set iteration
# ----------------------------------------------------------------------
def test_rep001_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        def walk(nodes: set[int]) -> list[int]:
            out = []
            for n in nodes:
                out.append(n)
            return out
        """,
    )
    assert new_codes(result) == ["REP001"]


def test_rep001_suppressed_with_reason(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        def walk(nodes: set[int]) -> list[int]:
            out = []
            for n in nodes:  # repro-lint: disable=REP001 reason=order folded by sum below
                out.append(n)
            return out
        """,
    )
    assert result.new == []
    assert [f.code for f in result.suppressed] == ["REP001"]


def test_rep001_clean_when_sorted(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        def walk(nodes: set[int]) -> list[int]:
            return [n for n in sorted(nodes)]
        """,
    )
    assert result.new == []


def test_rep001_all_str_literal_set_exempt(tmp_path):
    # The checker charter is *non-str* keys: str hashing is randomised
    # too, but sets of literal tags iterate in a stable order within a
    # frozen interpreter run and are endemic in config handling.
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        def kinds() -> list[str]:
            return [k for k in {"peak", "nonpeak"}]
        """,
    )
    assert result.new == []


def test_rep001_applies_to_every_package(tmp_path):
    # PR 9 widened REP001 from a per-directory list to the whole tree:
    # packages that used to be out of scope (experiments/) now count.
    result = lint_source(
        tmp_path,
        "repro/experiments/mod.py",
        """
        def walk(nodes: set[int]) -> list[int]:
            return list(nodes)
        """,
    )
    assert new_codes(result) == ["REP001"]


def test_rep001_cross_module_set_returning_method(tmp_path):
    # A method annotated -> set[int] in one module taints calls to the
    # same name in another module — the PR 3 landmark-adjacency leak.
    (tmp_path / "repro" / "network").mkdir(parents=True)
    (tmp_path / "repro" / "network" / "idx.py").write_text(
        textwrap.dedent(
            """
            class Index:
                def members(self) -> set[int]:
                    return {1, 2}
            """
        )
    )
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "use.py").write_text(
        textwrap.dedent(
            """
            def consume(index) -> list[int]:
                return [m for m in index.members()]
            """
        )
    )
    result = lint_paths([str(tmp_path)])
    assert new_codes(result) == ["REP001"]
    assert result.new[0].path.endswith("core/use.py")


# ----------------------------------------------------------------------
# REP002: unseeded randomness
# ----------------------------------------------------------------------
def test_rep002_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        import random

        def jitter() -> float:
            return random.random()
        """,
    )
    assert new_codes(result) == ["REP002"]


def test_rep002_seeded_constructors_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        import random
        import numpy as np

        def rngs():
            return random.Random(7), np.random.default_rng(7)
        """,
    )
    assert result.new == []


def test_rep002_demand_generator_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/demand/generator.py",
        """
        import random

        def jitter() -> float:
            return random.random()
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP003: wall clock in simulation code
# ----------------------------------------------------------------------
def test_rep003_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
    )
    assert new_codes(result) == ["REP003"]


def test_rep003_suppressed_with_reason(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/core/mod.py",
        """
        import time

        def stamp() -> float:
            return time.perf_counter()  # repro-lint: disable=REP003 reason=latency metric only
        """,
    )
    assert result.new == []
    assert [f.code for f in result.suppressed] == ["REP003"]


def test_rep003_obs_package_exempt(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/obs/mod.py",
        """
        import time

        def stamp() -> float:
            return time.time()
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP004: float equality
# ----------------------------------------------------------------------
def test_rep004_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/fleet/mod.py",
        """
        def at_deadline(t: float) -> bool:
            return t == 1.5
        """,
    )
    assert new_codes(result) == ["REP004"]


def test_rep004_zero_and_int_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "repro/fleet/mod.py",
        """
        def checks(t: float, n: int) -> bool:
            return t == 0.0 or n == 3
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP005: mutable default arguments
# ----------------------------------------------------------------------
def test_rep005_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        def collect(x, acc=[]):
            acc.append(x)
            return acc
        """,
    )
    assert new_codes(result) == ["REP005"]


def test_rep005_none_default_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        def collect(x, acc=None):
            acc = [] if acc is None else acc
            acc.append(x)
            return acc
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP006: unordered collections into hashes
# ----------------------------------------------------------------------
def test_rep006_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        import hashlib

        def digest(keys: set[int]) -> str:
            return hashlib.sha256(str(keys).encode()).hexdigest()
        """,
    )
    assert new_codes(result) == ["REP006"]


def test_rep006_sorted_list_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        import hashlib

        def digest(keys: list[int]) -> str:
            return hashlib.sha256(str(sorted(keys)).encode()).hexdigest()
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP007: swallowed exceptions
# ----------------------------------------------------------------------
def test_rep007_true_positive_bare_and_broad(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        def lossy(fn):
            try:
                fn()
            except Exception:
                pass
            try:
                fn()
            except:
                continue_ = 1
                del continue_
        """,
    )
    # The broad-but-pass handler and the bare except both fire.
    assert new_codes(result) == ["REP007", "REP007"]


def test_rep007_specific_exception_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        def lossy(fn):
            try:
                fn()
            except ValueError:
                pass
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# REP008: unsorted directory listings
# ----------------------------------------------------------------------
def test_rep008_true_positive(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        import os

        def names(d: str) -> list[str]:
            return [n for n in os.listdir(d)]
        """,
    )
    assert new_codes(result) == ["REP008"]


def test_rep008_sorted_clean(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        import os
        from pathlib import Path

        def names(d: str) -> list[str]:
            first = sorted(os.listdir(d))
            second = sorted(Path(d).glob("*.json"))
            return first + [p.name for p in second]
        """,
    )
    assert result.new == []


# ----------------------------------------------------------------------
# engine behaviour: suppressions, baseline, parse errors, CLI
# ----------------------------------------------------------------------
def test_suppression_without_reason_still_fires(tmp_path):
    result = lint_source(
        tmp_path,
        "anywhere/mod.py",
        """
        def collect(x, acc=[]):  # repro-lint: disable=REP005
            return acc
        """,
    )
    assert new_codes(result) == ["REP005"]
    assert result.suppressed == []


def test_suppression_pragma_inside_string_ignored():
    sups = parse_suppressions('x = "repro-lint: disable=REP001 reason=nope"\n')
    assert sups == {}


def test_parse_error_reported_as_rep000(tmp_path):
    result = lint_source(tmp_path, "anywhere/broken.py", "def broken(:\n")
    assert new_codes(result) == [PARSE_ERROR_CODE]


def test_baseline_grandfathers_exact_budget(tmp_path):
    source = textwrap.dedent(
        """
        def one(x, a=[]):
            return a

        def two(x, b={}):
            return b
        """
    )
    result = lint_source(tmp_path, "anywhere/mod.py", source)
    assert len(result.new) == 2

    baseline = tmp_path / "baseline.json"
    write_baseline(result.new, baseline)

    again = lint_source(tmp_path, "anywhere/mod.py", source, baseline_path=baseline)
    assert again.new == []
    assert len(again.baselined) == 2
    assert again.exit_code == 0

    # A third occurrence exceeds the grandfathered budget and is new.
    grown = source + "\ndef three(x, c=set()):\n    return c\n"
    regrown = lint_source(tmp_path, "anywhere/mod.py", grown, baseline_path=baseline)
    assert len(regrown.baselined) == 2
    assert len(regrown.new) == 1
    assert regrown.exit_code == 1


def test_cli_update_baseline_round_trip(tmp_path, monkeypatch, capsys):
    target = tmp_path / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(a=[]):\n    return a\n")
    monkeypatch.chdir(tmp_path)

    assert main([str(target)]) == 1
    assert main([str(target), "--update-baseline"]) == 0
    assert json.loads(Path("lint-baseline.json").read_text())["findings"]
    assert main([str(target)]) == 0
    capsys.readouterr()


def test_cli_json_format(tmp_path, monkeypatch, capsys):
    target = tmp_path / "mod.py"
    target.write_text("def f(a=[]):\n    return a\n")
    monkeypatch.chdir(tmp_path)
    code = main([str(target), "--format", "json", "--no-baseline"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["code"] for f in payload["new"]] == ["REP005"]


def test_cli_list_checkers(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for checker in ALL_CHECKERS:
        assert checker.code in out


def test_list_checkers_matches_static_analysis_doc(capsys):
    # Doc-drift guard: the rules ``--list-checkers`` prints and the rules
    # in the catalog tables (header ``| Code |``) of STATIC_ANALYSIS.md
    # must be the same set, so adding or removing one updates the doc.
    assert main(["--list-checkers"]) == 0
    printed = set(re.findall(r"^(REP\d{3}) ", capsys.readouterr().out, re.MULTILINE))
    documented, in_catalog = set(), False
    for line in (ROOT / "docs" / "STATIC_ANALYSIS.md").read_text().splitlines():
        in_catalog = line.startswith("| Code") or (in_catalog and line.startswith("|"))
        if in_catalog and (row := re.match(r"\| (REP\d{3}) \|", line)):
            documented.add(row.group(1))
    # REP000 is the engine's "file does not parse" code, not a checker.
    assert printed == documented - {PARSE_ERROR_CODE}
    assert printed == {f"REP00{n}" for n in range(1, 9)}


def test_cli_missing_path_is_an_error_line_not_a_traceback(tmp_path, monkeypatch, capsys):
    # ``repro lint effects`` lands here too: the sub-sub-command is gone,
    # so the word is a path that does not exist.
    monkeypatch.chdir(tmp_path)
    for missing in ("no_such_dir", "effects"):
        assert main([missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no such file or directory: {missing}\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        '{"version": 2, "findings": []}',
        '{"version": 1, "findings": 3}',
        '{"version": 1, "findings": [{"code": "REP005"}]}',
        "[]",
    ],
    ids=["not-json", "wrong-version", "findings-not-a-list", "entry-without-path", "not-an-object"],
)
def test_cli_bad_baseline_is_an_error_line_not_a_traceback(tmp_path, monkeypatch, capsys, content):
    (tmp_path / "mod.py").write_text("x = 1\n")
    (tmp_path / "baseline.json").write_text(content)
    monkeypatch.chdir(tmp_path)
    assert main(["--baseline", "baseline.json", "mod.py"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: baseline.json is not a lint baseline: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_deep_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--deep", "src"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


def test_repro_cli_forwards_lint_subcommand(tmp_path, monkeypatch, capsys):
    from repro.cli import main as cli_main

    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["lint", str(target)]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# the shipped tree is clean
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean(monkeypatch):
    monkeypatch.chdir(ROOT)
    result = lint_paths(["src"], baseline_path=Path("lint-baseline.json"))
    assert result.new == [], "\n".join(f.render() for f in result.new)
    assert result.exit_code == 0


def test_shipped_baseline_is_empty():
    data = json.loads((ROOT / "lint-baseline.json").read_text())
    assert data == {"version": 1, "findings": []}


def test_module_entry_point_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**__import__("os").environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
