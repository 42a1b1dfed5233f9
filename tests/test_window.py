"""Batch-window global assignment (the ``window-lap`` scheme).

Four properties anchor the scheme (see ISSUE/PR 8):

* the vectorised cost-matrix fill is **bit-identical** to evaluating
  every pruned pair with the scalar per-pair insertion reference;
* ``W -> 0`` (single-request windows) reproduces the greedy mT-Share
  decision stream exactly;
* unmatched requests roll across windows but never past their pick-up
  deadline, and the request accounting still closes;
* windowed runs are deterministic — double ``run()`` and the streaming
  façade produce the same decision fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.core import window
from repro.core.mtshare import MTShare
from repro.core.payment import PaymentModel
from repro.fleet.schedule import score_insertions
from repro.obs import Instrumentation
from repro.core.window import (
    INFEASIBLE_PENALTY,
    WindowLAP,
    _linear_sum_assignment,
    solve_window_lap,
)
from repro.sim.engine import Simulator
from repro.sim.scenario import SCHEME_NAMES, SCHEME_REGISTRY

from tests.oracles import best_partial_matching, scalar_cost_matrix
from tests.test_runner_parallel import decision_fingerprint


def _window_scheme(scenario, window_s, **overrides):
    config = scenario.default_config(dispatch_window_s=window_s, **overrides)
    return scenario.make_scheme("window-lap", config=config)


def _run(scenario, scheme, num_taxis=30, fleet_seed=1):
    sim = Simulator(scheme, scenario.make_fleet(num_taxis, seed=fleet_seed), scenario.requests())
    return sim.run()


# ----------------------------------------------------------------------
# registry (satellite: one table drives every scheme surface)
# ----------------------------------------------------------------------
class TestSchemeRegistry:
    def test_window_lap_registered(self):
        assert "window-lap" in SCHEME_NAMES
        assert SCHEME_NAMES == tuple(SCHEME_REGISTRY)

    def test_registry_entries_are_complete(self):
        for key, info in SCHEME_REGISTRY.items():
            assert info.key == key
            assert info.summary
            assert callable(info.factory)

    def test_factory_builds_window_lap(self, test_scenario):
        scheme = test_scenario.make_scheme("window-lap")
        assert isinstance(scheme, WindowLAP)
        assert isinstance(scheme, MTShare)  # inherits indexes + pruning
        assert scheme.dispatch_window_s == test_scenario.default_config().dispatch_window_s

    def test_greedy_schemes_do_not_batch(self, test_scenario):
        scheme = test_scenario.make_scheme("mt-share")
        assert scheme.dispatch_window_s is None
        with pytest.raises(NotImplementedError):
            scheme.match_window([], 0.0)


# ----------------------------------------------------------------------
# LAP solver
# ----------------------------------------------------------------------
class TestSolveWindowLap:
    def test_empty_and_all_infeasible(self):
        assert solve_window_lap(np.empty((0, 0))) == []
        assert solve_window_lap(np.full((3, 2), np.inf)) == []

    def test_prefers_global_optimum_over_greedy(self):
        # Greedy (row order) would give row 0 the cheap taxi 0 (1.0) and
        # leave row 1 with 10.0 (total 11); the LAP swaps to 2 + 2 = 4.
        costs = np.array([[1.0, 2.0], [2.0, 10.0]])
        assert solve_window_lap(costs) == [(0, 1), (1, 0)]

    def test_maximises_matches_before_cost(self):
        # Row 0 could take taxi 0 for 1.0, starving row 1 (only taxi 0
        # feasible there is not: row 1 has only taxi 0).  Masking must
        # keep both rows matched when possible.
        costs = np.array([[1.0, 50.0], [2.0, np.inf]])
        assert solve_window_lap(costs) == [(0, 1), (1, 0)]

    def test_infeasible_rows_are_dropped(self):
        costs = np.array([[np.inf, np.inf], [1.0, 2.0]])
        assert solve_window_lap(costs) == [(1, 0)]

    def test_infeasible_rows_and_columns_do_not_move_the_answer(self):
        """Requests no taxi can serve and taxis no request can use,
        inserted anywhere, leave the pairs among the original cells as
        they were.  Small-integer detours make equal-cost optima common."""
        rng = np.random.default_rng(41)
        for _trial in range(400):
            rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
            costs = rng.integers(0, 6, size=(rows, cols)).astype(float)
            costs[rng.random((rows, cols)) < 0.5] = np.inf
            row_at = np.sort(rng.integers(0, rows + 1, size=int(rng.integers(0, 6))))
            col_at = np.sort(rng.integers(0, cols + 1, size=int(rng.integers(0, 6))))
            padded = np.insert(np.insert(costs, row_at, np.inf, axis=0), col_at, np.inf, axis=1)
            row_of = np.insert(np.arange(rows), row_at, -1)
            col_of = np.insert(np.arange(cols), col_at, -1)
            pairs = [(int(row_of[i]), int(col_of[j])) for i, j in solve_window_lap(padded)]
            assert pairs == solve_window_lap(costs), (costs, row_at, col_at)

    def test_feasible_matches_first_then_least_detour(self):
        """Against exhaustive enumeration of every partial matching of
        windows up to 6 x 6 — not against the penalty argument.  Integer
        detours make the optimal totals compare exactly."""
        rng = np.random.default_rng(27)
        for trial in range(200):
            rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
            costs = rng.integers(0, 30, size=(rows, cols)).astype(float)
            costs[rng.random((rows, cols)) < (0.2, 0.5, 0.8, 1.0)[trial % 4]] = np.inf
            pairs = solve_window_lap(costs)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            assert all(np.isfinite(costs[i, j]) for i, j in pairs)
            assert (len(pairs), sum(costs[i, j] for i, j in pairs)) == best_partial_matching(
                costs
            ), costs


def _matches_scipy(matrix):
    """The port returns scipy's arrays, or raises scipy's error."""
    try:
        expected = linear_sum_assignment(matrix)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _linear_sum_assignment(matrix)
        assert str(raised.value) == str(exc)
        return
    got = _linear_sum_assignment(matrix)
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (matrix, got)


def _random_cost_matrix(rng, kind):
    """One of the input families the port must agree with scipy on."""
    rows, cols = (int(k) for k in rng.integers(1, 11, size=2))
    if kind == 0:  # small integers: ties everywhere
        return rng.integers(0, 4, size=(rows, cols)).astype(float)
    if kind == 1:  # a window: fractional detours among penalty cells
        costs = rng.uniform(0.0, 900.0, size=(rows, cols))
        costs[rng.random((rows, cols)) < 0.75] = INFEASIBLE_PENALTY
        costs[rng.random(rows) < 0.3] = INFEASIBLE_PENALTY
        return costs
    if kind == 2:  # constant rows among small integers
        costs = rng.integers(0, 3, size=(rows, cols)).astype(float)
        costs[rng.random(rows) < 0.5] = float(rng.integers(0, 9))
        return costs
    costs = rng.normal(size=(rows, cols))  # unmasked +inf: feasible or not
    costs[rng.random((rows, cols)) < 0.3] = np.inf
    return costs


class TestAssignmentPort:
    """``_linear_sum_assignment`` is scipy's solver, answer for answer."""

    def test_random_matrices_match_scipy(self):
        rng = np.random.default_rng(11)
        for trial in range(12_000):
            _matches_scipy(_random_cost_matrix(rng, trial % 4))

    @pytest.mark.parametrize("matrix", [
        np.empty((0, 0)), np.empty((0, 4)), np.empty((3, 0)),
        np.array([[1.0, np.nan]]), np.array([[1.0], [-np.inf]]),
        np.full((3, 2), np.inf), np.full((2, 3), np.inf),
        np.array([[np.inf, 1.0], [np.inf, 2.0]]), np.array([[1.0, 2.0], [np.inf, np.inf]]),
        np.full((4, 4), 7.0), np.full((1, 1), INFEASIBLE_PENALTY),
        np.arange(6.0), np.ones((2, 2, 2)), [[3, 1], [2, 2]],
    ], ids=["0x0", "0x4", "3x0", "nan", "-inf", "all-inf-tall", "all-inf-wide",
            "infeasible-col", "infeasible-row", "constant", "penalty", "1-d", "3-d", "ints"])
    def test_edge_inputs_match_scipy(self, matrix):
        _matches_scipy(matrix)

    def test_every_window_of_a_run_matches_scipy(self, test_scenario, monkeypatch):
        solved = []

        def checked(matrix):
            _matches_scipy(matrix)
            solved.append(matrix.shape)
            return linear_sum_assignment(matrix)

        monkeypatch.setattr(window, "_linear_sum_assignment", checked)
        m = _run(test_scenario, _window_scheme(test_scenario, 120.0))
        # Windows with no feasible cell never reach the solver.
        assert 0 < len(solved) <= m.counters["window.lap_solves"]
        assert any(rows > 1 for rows, _cols in solved)


# ----------------------------------------------------------------------
# vectorised cost matrix == scalar per-pair reference, bit for bit
# ----------------------------------------------------------------------
class TestCostMatrixEquivalence:
    def _busy_state(self, scenario):
        """A scheme + fleet where some candidates carry pending stops."""
        scheme = _window_scheme(scenario, 30.0)
        fleet = {t.taxi_id: t for t in scenario.make_fleet(25, seed=5)}
        scheme.register_fleet(fleet, now=0.0)
        requests = [r for r in scenario.requests() if not r.offline]
        matched = 0
        i = 0
        while matched < 10 and i < len(requests):
            r = requests[i]
            i += 1
            result = scheme.dispatch(r, r.release_time)
            if result is not None:
                scheme.install(result, r, r.release_time)
                matched += 1
        batch = requests[i : i + 12]
        now = max(r.release_time for r in batch)
        batch = [r for r in batch if now <= r.pickup_deadline]
        return scheme, fleet, batch, now

    def test_matrix_matches_scalar_reference(self, test_scenario, monkeypatch):
        self._assert_matches_reference(test_scenario, monkeypatch)

    @pytest.mark.parametrize("sp_mode", ["full", "lazy"])
    def test_matrix_matches_scalar_reference_on(self, sp_mode_scenarios, sp_mode, monkeypatch):
        """Every routing backend."""
        assert sp_mode_scenarios[sp_mode].engine.mode == sp_mode
        self._assert_matches_reference(sp_mode_scenarios[sp_mode], monkeypatch)

    def _assert_matches_reference(self, scenario, monkeypatch):
        """The LAP input is the scalar reference's, byte for byte."""
        scheme, fleet, batch, now = self._busy_state(scenario)
        assert len(batch) >= 2
        assert any(fleet[t].pending_stops() for t in fleet), "no busy taxis to exercise"
        obs = Instrumentation()
        scheme.instrument(obs)
        calls = []
        starts_seen = []

        def counted(engine, starts, requests, pairs, scorer_obs):
            calls.append(len(pairs[0]))
            starts_seen.append(len(starts))
            return score_insertions(engine, starts, requests, pairs, scorer_obs)

        monkeypatch.setattr(window, "score_insertions", counted)
        fast = scheme.build_cost_matrix(batch, now)
        assert any(not fleet[t].pending_stops() for t in fast.taxi_ids), "no idle candidates"
        # Every screened (request, taxi) pair of the window, idle or
        # busy, is a row of one call, indexed into one start per column.
        assert calls == [obs.counters["window.matrix_pairs"]] == [sum(fast.num_candidates)]
        assert starts_seen == [len(fast.taxi_ids)]
        assert obs.counters["window.screened_pairs"] > 0
        slow = scalar_cost_matrix(scheme, batch, now)
        assert fast.taxi_ids == slow.taxi_ids
        assert fast.num_candidates == slow.num_candidates
        assert fast.costs.shape == slow.costs.shape
        # Bitwise: identical feasibility pattern and identical detours.
        assert np.array_equal(np.isfinite(fast.costs), np.isfinite(slow.costs))
        finite = np.isfinite(fast.costs)
        assert np.array_equal(fast.costs[finite], slow.costs[finite])
        assert fast.costs.tobytes() == slow.costs.tobytes()
        assert finite.any(), "degenerate matrix: nothing feasible"

    def test_matrix_stop_builders_agree(self, test_scenario):
        scheme, _fleet, batch, now = self._busy_state(test_scenario)
        fast = scheme.build_cost_matrix(batch, now)
        slow = scalar_cost_matrix(scheme, batch, now)
        for i in range(len(batch)):
            for j in range(len(fast.taxi_ids)):
                if np.isfinite(fast.costs[i, j]):
                    assert fast.build_stops(i, j) == slow.build_stops(i, j)


# ----------------------------------------------------------------------
# W -> 0 degenerates to the greedy decision stream
# ----------------------------------------------------------------------
class TestZeroWindowEquivalence:
    def test_w0_matches_greedy_fingerprint(self, test_scenario):
        greedy = _run(test_scenario, test_scenario.make_scheme("mt-share"))
        windowed = _run(test_scenario, _window_scheme(test_scenario, 0.0))
        assert decision_fingerprint(windowed) == decision_fingerprint(greedy)

    def test_w0_never_rolls(self, test_scenario):
        m = _run(test_scenario, _window_scheme(test_scenario, 0.0))
        assert m.counters.get("window.rolled", 0) == 0
        assert m.counters.get("window.collected", 0) == m.num_online


# ----------------------------------------------------------------------
# rollover semantics and accounting
# ----------------------------------------------------------------------
class TestRollover:
    def test_rollover_respects_deadlines_and_balance(self, test_scenario):
        scheme = _window_scheme(test_scenario, 60.0)
        sim = Simulator(scheme, test_scenario.make_fleet(6, seed=2), test_scenario.requests())
        decisions = []
        sim.on_decision = lambda req, now, matched, taxi, dt, kind: decisions.append(
            (req, now, matched, kind)
        )
        m = sim.run()
        m.check_balance()
        assert m.counters.get("window.rolled", 0) > 0, "fleet too large to force rollover"
        # A match after the pick-up deadline would be a phantom pickup.
        online = [d for d in decisions if d[3] == "online"]
        assert online, "no online decisions recorded"
        for req, now, matched, _kind in online:
            if matched:
                assert now <= req.pickup_deadline + 1e-9
        # Every online request reaches exactly one terminal decision.
        terminal = {d[0].request_id for d in online}
        assert len(terminal) == m.num_online
        assert m.counters.get("window.unflushed", 0) == 0

    def test_window_counters_present(self, test_scenario):
        m = _run(test_scenario, _window_scheme(test_scenario, 30.0))
        for counter in (
            "window.collected", "window.flushes", "window.matched", "window.matrix_cells"
        ):
            assert m.counters.get(counter, 0) > 0, counter
        assert "window.solve" in m.stages
        assert m.stages["window.solve"]["count"] == m.counters["window.flushes"]
        # 30 s windows at this demand hold a handful of requests: each
        # one of two or more is screened whole, never request by request.
        assert 0 < m.stages["window.screen"]["count"] <= m.counters["window.flushes"]
        assert m.counters["window.screened_pairs"] > 0
        assert "window.candidates" not in m.stages

    def test_large_windows_screen_in_bulk(self, test_scenario):
        # Five-minute windows hold a few dozen requests.
        m = _run(test_scenario, _window_scheme(test_scenario, 300.0))
        assert m.counters["window.screened_pairs"] > 0
        assert 0 < m.stages["window.screen"]["count"] <= m.counters["window.flushes"]
        assert m.counters["window.matched"] > 0


# ----------------------------------------------------------------------
# determinism: double run and the streaming façade
# ----------------------------------------------------------------------
class TestWindowedDeterminism:
    def test_double_run_identical(self, test_scenario):
        a = _run(test_scenario, _window_scheme(test_scenario, 30.0))
        b = _run(test_scenario, _window_scheme(test_scenario, 30.0))
        assert decision_fingerprint(a) == decision_fingerprint(b)

    def test_streaming_matches_batch(self, test_scenario):
        batch = _run(test_scenario, _window_scheme(test_scenario, 30.0))
        sim = Simulator(
            _window_scheme(test_scenario, 30.0),
            test_scenario.make_fleet(30, seed=1),
            [],
        )
        sim.stream_begin()
        for request in test_scenario.requests():
            sim.stream_submit(request)
        streamed = sim.stream_finish()
        assert decision_fingerprint(streamed) == decision_fingerprint(batch)


# ----------------------------------------------------------------------
# window screening never moves a decision: whole runs, every subsystem on
# ----------------------------------------------------------------------
CHAOS = "seed=5,breakdown_rate=0.3,cancel_rate=0.15,shock_windows=2"

#: Counters only the production fill keeps: the reference below builds
#: its matrix pair by pair and reads no fleet-wide screen.
FILL_COUNTERS = ("window.screened_pairs", "window.matrix_pairs")


class ScalarWindowLAP(WindowLAP):
    """``window-lap`` whose cost matrix is the per-pair reference:
    one ``candidate_taxis`` search per request and the scalar insertion
    oracle per candidate (``tests/oracles.py::scalar_cost_matrix``)."""

    def build_cost_matrix(self, batch, now):
        matrix = scalar_cost_matrix(self, batch, now)
        self._obs.count("match.candidates_found", sum(matrix.num_candidates))
        self._obs.count("window.matrix_cells", matrix.costs.size)
        self._obs.count("window.matrix_feasible", int(np.isfinite(matrix.costs).sum()))
        return matrix


def _observe(scenario, cls, streamed):
    """One windowed run of ``cls`` with faults and rebalancing on;
    everything a decision would move."""
    config = scenario.default_config(dispatch_window_s=60.0)
    landmarks = scenario.landmark_graph("bipartite", config.num_partitions)
    scheme = cls(scenario.network, scenario.engine, config,
                 scenario.partitioning("bipartite", config.num_partitions), landmarks=landmarks)
    requests = scenario.requests(rho=1.6, seed=1)
    fleet = scenario.make_fleet(12, seed=1)
    sim = Simulator(
        scheme,
        fleet,
        [] if streamed else requests,
        payment=PaymentModel(),
        faults=scenario.fault_plan(CHAOS, fleet, requests),
        rebalance=scenario.rebalance_policy("on"),
    )
    decisions = []
    sim.on_decision = lambda request, now, matched, taxi_id, _elapsed, kind: decisions.append(
        (request.request_id, now, matched, taxi_id, kind)
    )
    if streamed:
        sim.stream_begin()
        for request in sorted(requests, key=lambda r: (r.release_time, r.request_id)):
            sim.stream_submit(request)
        m = sim.stream_finish()
    else:
        m = sim.run()
    return decisions, {
        "trips": {
            rid: (t.taxi_id, t.assign_time, t.pickup_time, t.dropoff_time)
            for rid, t in sim.log.trips.items()
        },
        "candidates": m.candidate_counts,
        "waiting": m.waiting_times_s,
        "detour": m.detour_times_s,
        "fares": (m.regular_fares, m.shared_fares, m.driver_incomes),
        "counters": {
            k: v for k, v in m.counters.items()
            if k.startswith(("match.", "fault.", "rebalance.", "sim.", "window."))
            and k not in FILL_COUNTERS
        },
        # Both screens count each exact reachability bound they take.
        "reach_checks": m.counters.get("kernel.batched_reach_checks", 0),
    }, m


@pytest.mark.parametrize("streamed", [False, True], ids=["batch", "streamed"])
def test_screening_tier_never_moves_a_decision(test_scenario, streamed):
    """Whole ``window-lap`` runs against the per-pair reference scheme:
    the ``on_decision`` streams agree record by record, and so do the
    trips, candidate counts, fares and counters, with breakdowns,
    cancellations, shocks and rebalancing on."""
    fast, fast_rest, m = _observe(test_scenario, WindowLAP, streamed)
    slow, slow_rest, m_slow = _observe(test_scenario, ScalarWindowLAP, streamed)
    assert len(fast) == len(slow)
    for got, expected in zip(fast, slow):
        assert got == expected
    for key, value in slow_rest.items():
        assert fast_rest[key] == value, key
    # Not vacuous: production screened whole windows, the reference did
    # not, the reach checks ran, and the subsystems ran.
    assert m.counters["window.screened_pairs"] > 0
    assert m.stages["window.screen"]["count"] > 0
    assert "window.screen" not in m_slow.stages
    assert m.counters["kernel.batched_reach_checks"] > 0
    assert m.breakdowns > 0 and m.cancelled > 0
    assert m.counters["rebalance.ticks"] > 0
    assert m.counters["window.rolled"] > 0 and m.counters["window.matched"] > 0
