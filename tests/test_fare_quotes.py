"""Tests for online fare quoting at drop-off (Eq. 7/8 in the simulator)."""

import pytest

from repro.core.payment import FareSchedule, PaymentModel
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def quoted_run(test_scenario):
    sim = Simulator(
        test_scenario.make_scheme("mt-share"),
        test_scenario.make_fleet(15, seed=1),
        test_scenario.requests(),
        payment=PaymentModel(),
    )
    return sim, sim.run()


class TestQuotes:
    def test_every_completed_trip_quoted(self, quoted_run):
        _sim, m = quoted_run
        assert len(m.quoted_fares) == m.completed

    def test_quotes_bounded(self, quoted_run):
        """Eq. 8 guarantees no rider pays more than solo; it has no
        lower floor (a short-trip rider with a large detour share can
        be quoted near zero), so we only check sanity bounds."""
        sim, m = quoted_run
        speed = sim._scheme.network.speed_mps  # noqa: SLF001
        for rid, quote in m.quoted_fares.items():
            solo = FareSchedule().fare(sim.log.trips[rid].request.direct_cost * speed)
            assert -solo <= quote <= solo + 1e-6

    def test_quotes_close_to_settlement(self, quoted_run):
        """Projected detour rates approximate the final split: totals
        agree within a few percent."""
        _sim, m = quoted_run
        total_quoted = sum(m.quoted_fares.values())
        assert total_quoted == pytest.approx(m.shared_fares, rel=0.05)

    def test_quote_never_exceeds_solo_fare(self, quoted_run):
        sim, m = quoted_run
        speed = sim._scheme.network.speed_mps  # noqa: SLF001 - test introspection
        for rid, quote in m.quoted_fares.items():
            trip = sim.log.trips[rid]
            solo = FareSchedule().fare(trip.request.direct_cost * speed)
            assert quote <= solo + 1e-6

    def test_no_payment_no_quotes(self, test_scenario):
        sim = Simulator(
            test_scenario.make_scheme("no-sharing"),
            test_scenario.make_fleet(8, seed=2),
            test_scenario.requests()[:30],
            payment=None,
        )
        m = sim.run()
        assert m.quoted_fares == {}
