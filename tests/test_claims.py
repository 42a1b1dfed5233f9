"""The claims table, its verdict rule, and the EXPERIMENTS.md block it renders."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import claims
from repro.experiments.claims import (
    CLAIM_SEEDS,
    CLAIMS,
    FAIL,
    PARTIAL,
    PASS,
    REGISTRY,
    Check,
    Claim,
    render,
    splice,
    verdict,
)
from repro.reporting import ExperimentResult

ROOT = pathlib.Path(__file__).resolve().parents[1]
SYMBOLS = (PASS, PARTIAL, FAIL)


@pytest.fixture(scope="module")
def doc():
    return json.loads((ROOT / "EXPERIMENTS.json").read_text(encoding="utf-8"))


_SYNTHETIC = Claim(
    "synthetic", "synthetic", ("x",), "paper",
    (Check("direction", lambda x: x[0], False),),
    (Check("magnitude", lambda x: x[1], False),),
    lambda x: "",
)


@pytest.mark.parametrize("per_seed, expected", [
    ({7: (True, True), 11: (True, True), 13: (True, True)}, PASS),
    ({7: (True, True), 11: (True, False), 13: (True, True)}, PARTIAL),
    ({7: (True, False), 11: (True, False), 13: (True, False)}, PARTIAL),
    ({7: (True, True), 11: (True, True), 13: (False, True)}, FAIL),
    ({7: (False, False), 11: (True, True), 13: (True, True)}, FAIL),
], ids=["all-hold", "magnitude-misses-one-seed", "magnitude-misses-all",
        "direction-misses-one-seed", "both-miss-one-seed"])
def test_verdict_rule(per_seed, expected):
    assert verdict(_SYNTHETIC, {seed: {"x": dm} for seed, dm in per_seed.items()}) == expected


def test_every_claim_names_a_registered_experiment():
    assert len({c.key for c in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.experiments, claim.key
        assert set(claim.experiments) <= set(REGISTRY) - {"claims"}, claim.key
        assert claim.direction, claim.key


def test_every_quick_check_is_one_the_bench_asserts():
    """The bench asserts a row's quick checks in its one experiment's
    test, so a quick check on a row reading two experiments would be
    asserted nowhere."""
    for claim in CLAIMS:
        if any(c.quick for c in claim.direction + claim.magnitude):
            assert len(claim.experiments) == 1, claim.key


def test_experiments_json_is_the_full_scale_run_over_the_claim_seeds(doc):
    assert doc["scale"] == "full"
    assert doc["seeds"] == list(CLAIM_SEEDS)
    read = {e for c in CLAIMS for e in c.experiments}
    assert [int(s) for s in doc["results"]] == list(CLAIM_SEEDS)
    for per in doc["results"].values():
        assert set(per) == read
    assert doc["verdicts"] == {
        c.key: verdict(c, {s: {n: ExperimentResult(**r) for n, r in per.items()}
                           for s, per in doc["results"].items()})
        for c in CLAIMS
    }


def test_experiments_md_matches_the_render(doc):
    """EXPERIMENTS.md's verdict block is exactly ``render(EXPERIMENTS.json)``;
    regenerate it with ``python -m repro.experiments.claims``."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert splice(text, render(doc)) == text


def test_no_verdict_symbol_outside_the_block():
    """The legend is rendered too, so no symbol is set by hand."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    head, rest = text.split(claims.BEGIN, 1)
    tail = rest.split(claims.END, 1)[1]
    assert not [line for line in (head + tail).splitlines()
                if any(s in line for s in SYMBOLS)]
