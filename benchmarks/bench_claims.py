"""One benchmark per experiment the paper's claims read.

Each runs its experiment once at the active scale and asserts the
checks of :data:`repro.experiments.claims.CLAIMS` that read only this
experiment and are marked ``quick``.  The claims table is the one place
a claim is stated; ``repro experiment claims`` computes the verdicts
over three seeds (EXPERIMENTS.md).
"""

import pytest
from conftest import run_figure

from repro.experiments.claims import CLAIMS, REGISTRY

EXPERIMENTS = [name for name in REGISTRY if any(c.experiments == (name,) for c in CLAIMS)]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_claims(benchmark, scale, name):
    res = run_figure(benchmark, REGISTRY[name], scale)
    for claim in CLAIMS:
        if claim.experiments == (name,):
            for check in claim.direction + claim.magnitude:
                if check.quick:
                    assert check.holds(res), f"{claim.title}: {check.text}"
