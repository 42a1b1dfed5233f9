"""The ``repro lint --deep`` tier: call graph and effect contracts.

Each REP10x checker gets a true-positive fixture, a suppressed
fixture and a clean fixture, mirroring ``test_repro_lint.py``'s
structure for the per-file codes.  Fixture trees are written under a
``repro/<pkg>/`` layout inside ``tmp_path`` so module-qualified names
resolve the same way they do for the shipped tree.  The final tests
gate the shipped tree itself: the deep lint must run clean (no deep
baseline) and fast (< 10 s), and the effects report must prove every
dispatch-path contract root pure.
"""

from __future__ import annotations

import ast
import re
import textwrap
import time
from pathlib import Path

from repro.analysis import lint_paths, main
from repro.analysis.callgraph import build_call_graph, module_name_for
from repro.analysis.effects import infer_effects
from repro.analysis.engine import PARSE_ERROR_CODE

ROOT = Path(__file__).resolve().parents[1]


def deep_lint(tmp_path, files: dict[str, str]):
    """Write ``files`` (relpath -> source) and deep-lint the tree."""
    for relfile, source in files.items():
        target = tmp_path / relfile
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], deep=True)


def new_codes(result) -> list[str]:
    return sorted(f.code for f in result.new)


def graph_of(files: dict[str, str], tmp_path):
    for relfile, source in files.items():
        target = tmp_path / relfile
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    parsed = [
        (path.relative_to(tmp_path).as_posix(), ast.parse(path.read_text()))
        for path in sorted(tmp_path.rglob("*.py"))
    ]
    return build_call_graph(parsed)


# ----------------------------------------------------------------------
# call graph construction
# ----------------------------------------------------------------------
def test_module_name_anchors_at_last_repro_segment():
    assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for("repro/core/__init__.py") == "repro.core"
    assert module_name_for("/tmp/x/repro/a/b.py") == "repro.a.b"


def test_callgraph_resolves_local_imported_and_method_calls(tmp_path):
    graph = graph_of(
        {
            "repro/util.py": """
            def leaf():
                return 1

            def mid():
                return leaf()
            """,
            "repro/app.py": """
            from .util import mid

            class Engine:
                def helper(self):
                    return mid()

                def run(self):
                    return self.helper()
            """,
        },
        tmp_path,
    )
    reachable = graph.reachable(["repro.app.Engine.run"])
    assert "repro.app.Engine.helper" in reachable
    assert "repro.util.mid" in reachable
    assert "repro.util.leaf" in reachable


def test_callgraph_virtual_dispatch_reaches_subclass_overrides(tmp_path):
    graph = graph_of(
        {
            "repro/base.py": """
            class Scheme:
                def run(self):
                    return self.match()

                def match(self):
                    raise NotImplementedError
            """,
            "repro/impl.py": """
            from .base import Scheme

            class Greedy(Scheme):
                def match(self):
                    return 42
            """,
        },
        tmp_path,
    )
    reachable = graph.reachable(["repro.base.Scheme.run"])
    assert "repro.impl.Greedy.match" in reachable


def test_callgraph_event_subscription_indirection(tmp_path):
    # Nothing calls a handler syntactically — the kernel's dispatch loop
    # does — so being passed to ``subscribe`` is what makes it a REP101
    # root, whatever its name or class.
    result = deep_lint(
        tmp_path,
        {
            "repro/app.py": """
            import time

            TICK = "tick"

            class Sim:
                def __init__(self, kernel):
                    self._kernel = kernel
                    self._kernel.subscribe(TICK, self._on_tick)

                def _on_tick(self, event):
                    return time.time()

                def start(self):
                    self._kernel.schedule(0.0, TICK)
            """,
        },
    )
    [finding] = [f for f in result.new if f.code == "REP101"]
    assert "WALL_CLOCK" in finding.message
    assert "repro.app.Sim._on_tick" in finding.message


def test_callgraph_cha_blocklist_keeps_builtin_methods_opaque(tmp_path):
    graph = graph_of(
        {
            "repro/app.py": """
            class Store:
                def get(self, key):
                    return open(key)

            def lookup(mapping):
                return mapping.get("x")
            """,
        },
        tmp_path,
    )
    # dict.get traffic must not alias onto Store.get.
    assert "repro.app.Store.get" not in graph.reachable(["repro.app.lookup"])


# ----------------------------------------------------------------------
# REP101/REP102: effect contracts
# ----------------------------------------------------------------------
_SIM_WITH_CLOCK = {
    "repro/sim/engine.py": """
    import time
    from .helper import stamp

    class Simulator:
        def __init__(self, kernel):
            kernel.subscribe("request.release", self._on_request_release)

        def _on_request_release(self, event):
            return stamp()
    """,
    "repro/sim/helper.py": """
    import time

    def stamp():
        return time.time()
    """,
}


def test_rep101_true_positive_effect_reaches_boundary(tmp_path):
    result = deep_lint(tmp_path, _SIM_WITH_CLOCK)
    assert "REP101" in new_codes(result)
    [finding] = [f for f in result.new if f.code == "REP101"]
    assert "WALL_CLOCK" in finding.message
    assert "stamp" in finding.message  # the witness chain names the leaf


def test_rep101_seed_suppression_clears_the_contract(tmp_path):
    files = dict(_SIM_WITH_CLOCK)
    files["repro/sim/helper.py"] = """
    import time

    def stamp():
        return time.time()  # repro-lint: disable=REP003 reason=metrics only
    """
    result = deep_lint(tmp_path, files)
    assert "REP101" not in new_codes(result)


def test_rep101_clean_boundary(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/sim/engine.py": """
            class Simulator:
                def __init__(self, kernel):
                    kernel.subscribe("request.release", self._on_request_release)

                def _on_request_release(self, event):
                    return self._apply(event)

                def _apply(self, event):
                    return event
            """,
        },
    )
    assert new_codes(result) == []


def test_rep101_scheme_match_contract(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/baselines/base.py": """
            class DispatchScheme:
                pass
            """,
            "repro/core/greedy.py": """
            import random
            from ..baselines.base import DispatchScheme

            class Greedy(DispatchScheme):
                def match_window(self, requests):
                    return random.choice(requests)
            """,
        },
    )
    assert "REP101" in new_codes(result)
    [finding] = [f for f in result.new if f.code == "REP101"]
    assert "UNSEEDED_RNG" in finding.message


def test_rep101_obs_is_exempt_from_seeding(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/obs/timing.py": """
            import time

            def measure():
                return time.perf_counter()
            """,
            "repro/sim/engine.py": """
            from ..obs.timing import measure

            class Simulator:
                def __init__(self, kernel):
                    kernel.subscribe("drain.tick", self._on_drain_tick)

                def _on_drain_tick(self, event):
                    return measure()
            """,
        },
    )
    assert new_codes(result) == []


def test_rep102_true_positive_impure_fingerprint(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/artifacts/plan.py": """
            class Plan:
                def fingerprint(self):
                    with open("/tmp/x") as fh:
                        return fh.read()
            """,
        },
    )
    assert new_codes(result) == ["REP102"]
    assert "FILESYSTEM" in result.new[0].message


def test_rep102_suppressed_on_the_def_line(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/artifacts/plan.py": """
            class Plan:
                def fingerprint(self):  # repro-lint: disable=REP102 reason=reads its own immutable spec file
                    with open("/tmp/x") as fh:
                        return fh.read()
            """,
        },
    )
    assert new_codes(result) == []
    assert [f.code for f in result.suppressed] == ["REP102"]


def test_rep102_clean_pure_fingerprint(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/artifacts/plan.py": """
            import hashlib

            class Plan:
                def fingerprint(self):
                    return hashlib.sha256(b"spec").hexdigest()
            """,
        },
    )
    assert new_codes(result) == []


def test_global_mutation_seed_ignores_locals_shadowing(tmp_path):
    result = deep_lint(
        tmp_path,
        {
            "repro/core/mod.py": """
            CACHE = {}

            def fingerprint():
                CACHE[1] = 2
                return 1

            def clean_fingerprint_helper():
                CACHE = {}
                CACHE[1] = 2
                return CACHE
            """,
        },
    )
    # Only the module-global mutation counts; the local shadow is pure.
    assert new_codes(result) == ["REP102"]
    assert "GLOBAL_MUTATION" in result.new[0].message


# ----------------------------------------------------------------------
# the shipped tree: clean, fast, and provably pure where it must be
# ----------------------------------------------------------------------
def test_shipped_tree_deep_lints_clean_with_empty_baseline(monkeypatch):
    monkeypatch.chdir(ROOT)
    result = lint_paths(["src"], deep=True, baseline_path=None)
    assert result.new == [], "\n".join(f.render() for f in result.new)


def test_shipped_tree_deep_lint_completes_quickly(monkeypatch):
    monkeypatch.chdir(ROOT)
    started = time.perf_counter()
    lint_paths(["src"], deep=True, baseline_path=None)
    assert time.perf_counter() - started < 10.0


def test_shipped_dispatch_roots_are_pure(monkeypatch, full_simulator_subscriptions):
    # The "no true positives remain" proof the ISSUE asks for: every
    # REP101 contract root and every fingerprint() in the shipped tree
    # has an empty inferred effect set after documented suppressions.
    monkeypatch.chdir(ROOT)
    from repro.analysis.engine import iter_python_files, parse_suppressions

    parsed, sup = [], {}
    for path in iter_python_files(["src"]):
        rel = path.as_posix()
        source = path.read_text()
        parsed.append((rel, ast.parse(source)))
        sup[rel] = parse_suppressions(source)
    graph = build_call_graph(parsed)
    report = infer_effects(graph, sup)
    roots = report.contract_roots + report.fingerprint_roots
    # Every handler the shipped Simulator really subscribes (all four
    # kinds on: window-lap + rebalancing) must be a contract root.
    subscribed = [
        f"{handler.__module__}.{handler.__qualname__}"
        for _kind, handler in full_simulator_subscriptions
    ]
    assert len(subscribed) == 4
    assert set(subscribed) <= set(report.contract_roots)
    names = "\n".join(roots)
    assert "repro.core.window.WindowLAP.build_cost_matrix" in names
    assert "fingerprint" in names
    for root in roots:
        assert report.effects_of(root) == [], (root, report.effects_of(root))


def test_effects_report_subcommand(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["effects", "src"]) == 0
    out = capsys.readouterr().out
    assert "effect contracts" in out
    assert "PURE" in out
    assert "repro.sim.engine.Simulator._on_request_release" in out


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
