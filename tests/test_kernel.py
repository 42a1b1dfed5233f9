"""Unit tests for the policy-agnostic discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    DRAIN_TICK,
    EVENT_TABLE,
    REBALANCE_TICK,
    REQUEST_RELEASE,
    WINDOW_TICK,
    Kernel,
    KernelError,
    ScheduledInPast,
)


def fired_payloads(kernel):
    """Run ``kernel`` to the end; each dispatched event's payload, in order."""
    fired = []
    for kind in EVENT_TABLE:
        kernel.subscribe(kind, lambda e: fired.append(e.payload))
    kernel.run()
    return fired


class TestEventQueue:
    def test_heap_orders_by_time(self):
        kernel = Kernel()
        kernel.subscribe(DRAIN_TICK, lambda e: None)
        for t in [5.0, 1.0, 3.0, 2.0, 4.0]:
            kernel.schedule(t, DRAIN_TICK, payload=t)
        assert fired_payloads(kernel) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_equal_time_stable_by_seq(self):
        kernel = Kernel()
        kernel.subscribe(DRAIN_TICK, lambda e: None)
        for i in range(10):
            kernel.schedule(7.0, DRAIN_TICK, payload=i)
        assert fired_payloads(kernel) == list(range(10))

    def test_priority_breaks_ties_before_seq(self):
        kernel = Kernel()
        kernel.subscribe(WINDOW_TICK, lambda e: None)
        kernel.subscribe(REQUEST_RELEASE, lambda e: None)
        kernel.schedule(1.0, WINDOW_TICK, payload="late")  # priority 1, seq 0
        kernel.schedule(1.0, REQUEST_RELEASE, payload="early")  # priority 0, seq 1
        assert fired_payloads(kernel) == ["early", "late"]


class TestKernelClock:
    def test_clock_commits_monotonically(self):
        kernel = Kernel()
        seen = []
        kernel.subscribe(DRAIN_TICK, lambda e: seen.append(kernel.now))
        for t in (30.0, 10.0, 20.0):
            kernel.schedule(t, DRAIN_TICK)
        kernel.run()
        assert seen == [10.0, 20.0, 30.0]
        assert kernel.now == 30.0

    def test_schedule_in_past_refused(self):
        kernel = Kernel()
        kernel.subscribe(DRAIN_TICK, lambda e: None)
        kernel.schedule(10.0, DRAIN_TICK)
        kernel.run()
        with pytest.raises(ScheduledInPast):
            kernel.schedule(9.0, DRAIN_TICK)
        # At the committed clock is fine (same-instant follow-up work).
        kernel.schedule(10.0, DRAIN_TICK)

    def test_handler_may_schedule_followups(self):
        kernel = Kernel()
        fired = []

        def tick(event):
            fired.append(event.time)
            if event.time < 3.0:
                kernel.schedule(event.time + 1.0, DRAIN_TICK)

        kernel.subscribe(DRAIN_TICK, tick)
        kernel.schedule(1.0, DRAIN_TICK)
        kernel.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_bound_is_exclusive_beyond(self):
        kernel = Kernel()
        fired = []
        kernel.subscribe(DRAIN_TICK, lambda e: fired.append(e.time))
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, DRAIN_TICK)
        assert kernel.run(until=2.0) == 2
        assert fired == [1.0, 2.0]
        assert kernel.pending == 1
        assert kernel.run() == 1

    def test_step_on_idle_kernel(self):
        assert Kernel().step() is None

    def test_counters(self):
        kernel = Kernel()
        kernel.subscribe(DRAIN_TICK, lambda e: None)
        kernel.schedule(1.0, DRAIN_TICK)
        kernel.schedule(2.0, DRAIN_TICK)
        kernel.run()
        assert kernel.events_scheduled == 2
        assert kernel.events_processed == 2

    def test_handlers_fire_in_subscription_order(self):
        kernel = Kernel()
        order = []
        kernel.subscribe(DRAIN_TICK, lambda e: order.append("a"))
        kernel.subscribe(DRAIN_TICK, lambda e: order.append("b"))
        kernel.schedule(1.0, DRAIN_TICK)
        kernel.run()
        assert order == ["a", "b"]

    def test_kinds_are_isolated(self):
        kernel = Kernel()
        hits = {REQUEST_RELEASE: 0, DRAIN_TICK: 0}

        def make(kind):
            def handler(event):
                hits[kind] += 1
            return handler

        kernel.subscribe(REQUEST_RELEASE, make(REQUEST_RELEASE))
        kernel.subscribe(DRAIN_TICK, make(DRAIN_TICK))
        kernel.schedule(1.0, REQUEST_RELEASE)
        kernel.schedule(2.0, DRAIN_TICK)
        kernel.schedule(3.0, REQUEST_RELEASE)
        kernel.run()
        assert hits == {REQUEST_RELEASE: 2, DRAIN_TICK: 1}


class TestEventProtocol:
    """``EVENT_TABLE`` is the protocol: the kernel enforces it at ``schedule``."""

    def test_undeclared_kind_refused_before_queueing(self):
        kernel = Kernel()
        kernel.subscribe("rogue.kind", lambda e: None)
        with pytest.raises(KernelError, match="rogue.kind"):
            kernel.schedule(1.0, "rogue.kind")
        assert kernel.pending == 0
        assert kernel.events_scheduled == 0

    def test_unsubscribed_kind_refused(self):
        kernel = Kernel()
        kernel.subscribe(DRAIN_TICK, lambda e: None)
        with pytest.raises(KernelError, match=WINDOW_TICK):
            kernel.schedule(1.0, WINDOW_TICK)
        assert kernel.pending == 0

    def test_same_instant_order_comes_from_the_table(self):
        # Release -> window flush -> rebalance census, whatever the
        # scheduling order (the PR 8 / PR 10 same-instant invariants).
        kernel = Kernel()
        fired = []
        for kind in (REQUEST_RELEASE, WINDOW_TICK, REBALANCE_TICK):
            kernel.subscribe(kind, lambda e: fired.append(e.kind))
        for kind in (REBALANCE_TICK, WINDOW_TICK, REQUEST_RELEASE):
            kernel.schedule(60.0, kind)
        kernel.run()
        assert fired == [REQUEST_RELEASE, WINDOW_TICK, REBALANCE_TICK]

    def test_every_table_kind_has_a_simulator_subscriber(self, full_simulator_subscriptions):
        # No dead rows: with every optional subsystem on, the Simulator
        # subscribes exactly the kinds the table declares.
        assert {kind for kind, _handler in full_simulator_subscriptions} == set(EVENT_TABLE)
