"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.artifacts import ARTIFACT_DIR_ENV, get_store
from repro import cli
from repro.cli import main
from repro.service.codec import request_to_dict
from repro.service.sources import synthetic_requests
from repro.sim.scenario import Scenario, ScenarioSpec, get_scenario
from tests.test_service import HOSTILE, hostile_payload


class TestList:
    def test_list_prints_schemes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mt-share" in out
        assert "fig6" in out
        assert "cruising" in out


class TestSimulate:
    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "no-sharing",
                "--taxis", "10",
                "--requests", "120",
                "--grid", "10",
                "--partitions", "9",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "response_ms" in out

    def test_simulate_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "uber"])

    def test_simulate_nonpeak(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "mt-share",
                "--kind", "nonpeak",
                "--taxis", "10",
                "--requests", "120",
                "--grid", "10",
                "--partitions", "9",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert "served_offline" in capsys.readouterr().out


class TestExperiment:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestFaultsFlag:
    def test_simulate_with_faults(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "mt-share",
                "--taxis", "10",
                "--requests", "120",
                "--grid", "10",
                "--partitions", "9",
                "--seed", "3",
                "--faults", "seed=7,breakdown_rate=0.3,cancel_rate=0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault events" in out
        assert "breakdowns" in out  # fault buckets reach the summary

    def test_simulate_with_rebalance(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "mt-share",
                "--taxis", "20",
                "--requests", "120",
                "--grid", "10",
                "--partitions", "9",
                "--rebalance", "cadence_s=120,max_moves=6",
            ]
        )
        assert code == 0
        assert "rebalancing on" in capsys.readouterr().out

    def test_simulate_rejects_bad_faults_spec(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "no-sharing",
                "--taxis", "5",
                "--requests", "50",
                "--grid", "8",
                "--partitions", "4",
                "--faults", "breakdown_rate=not-a-number",
            ]
        )
        assert code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_simulate_rejects_unknown_faults_key(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "no-sharing",
                "--taxis", "5",
                "--requests", "50",
                "--grid", "8",
                "--partitions", "4",
                "--faults", "meteor_rate=0.5",
            ]
        )
        assert code == 2
        assert "meteor_rate" in capsys.readouterr().err


SMALL_WORLD = ["--taxis", "5", "--requests", "50", "--grid", "8", "--partitions", "4"]


class TestBadScenarioArguments:
    """Flags that parse but describe nothing buildable: one ``error:``
    line on stderr and exit 2, handled once where ``main`` calls the
    sub-command — never a traceback, and never a report."""

    @pytest.mark.parametrize("argv,env,message", [
        (["simulate", *SMALL_WORLD, "--grid", "1"], {},
         "grid_city needs at least a 2x2 grid"),
        (["simulate", *SMALL_WORLD, "--requests", "0"], {}, "hourly_requests must be positive"),
        (["simulate", *SMALL_WORLD, "--partitions", "0"], {}, "num_partitions must be >= 1"),
        (["simulate", *SMALL_WORLD, "--rho", "0.5"], {},
         "the flexible factor rho must be finite and >= 1"),
        (["simulate", *SMALL_WORLD, "--rho", "nan"], {},
         "the flexible factor rho must be finite and >= 1"),
        (["simulate", *SMALL_WORLD, "--rho", "inf"], {},
         "the flexible factor rho must be finite and >= 1"),
        (["simulate", *SMALL_WORLD, "--congestion", "0"], {},
         "congestion must be a positive speed factor"),
        # A NaN or infinite speed factor built a network every request
        # was unreachable in: "0 requests", exit 0.
        (["simulate", *SMALL_WORLD, "--congestion", "nan"], {}, "congestion must be finite"),
        (["simulate", *SMALL_WORLD, "--congestion", "inf"], {}, "congestion must be finite"),
        (["simulate", *SMALL_WORLD, "--taxis", "0"], {}, "num_taxis must be positive"),
        (["simulate", *SMALL_WORLD, "--capacity", "0"], {}, "capacity must be positive"),
        # NaN passes every ordered comparison; before the finiteness
        # check it died in the simulator's first window tick.
        (["simulate", *SMALL_WORLD, "--scheme", "window-lap", "--window", "nan"], {},
         "dispatch_window_s must be finite"),
        # Every other scheme ran greedy dispatch and exited 0.
        (["simulate", *SMALL_WORLD, "--scheme", "mt-share", "--window", "30"], {},
         "--window applies only to --scheme window-lap"),
        # Without their finiteness check a NaN radius shocked every
        # routed taxi, an infinite delay made arrivals infinite, and the
        # rebalance ones crashed mid-run or switched rebalancing off.
        (["simulate", *SMALL_WORLD, "--faults", "shock_windows=1,shock_radius_frac=nan"], {},
         "bad --faults spec: shock_radius_frac must be finite"),
        (["simulate", *SMALL_WORLD, "--faults", "shock_windows=1,shock_delay_s=inf"], {},
         "bad --faults spec: shock_delay_s must be finite"),
        (["simulate", *SMALL_WORLD, "--rebalance", "lead_s=nan,max_moves=4"], {},
         "bad --rebalance spec: lead_s must be finite"),
        (["simulate", *SMALL_WORLD, "--rebalance", "cadence_s=inf"], {},
         "bad --rebalance spec: cadence_s must be finite"),
        (["simulate", *SMALL_WORLD, "--rebalance", "cadence_s=nan"], {},
         "bad --rebalance spec: cadence_s must be finite"),
        # ``repro experiment`` read its environment outside set-up: a bad
        # scale was a traceback, a bad worker count one sequential run.
        (["experiment", "table4"], {"REPRO_BENCH_SCALE": "bogus"},
         "unknown REPRO_BENCH_SCALE value 'bogus'; use 'quick' or 'full'"),
        (["experiment", "table4"], {"REPRO_WORKERS": "abc"},
         "REPRO_WORKERS must be a positive integer, got 'abc'"),
        (["experiment", "table4"], {"REPRO_WORKERS": "0"},
         "REPRO_WORKERS must be a positive integer, got '0'"),
        (["experiment", "table4"], {"REPRO_WORKERS": "-3"},
         "REPRO_WORKERS must be a positive integer, got '-3'"),
        (["experiment", "table4", "--workers", "-2"], {},
         "--workers must be a positive integer, got -2"),
        (["experiment", "table4", "--workers", "0"], {},
         "--workers must be a positive integer, got 0"),
    ], ids=["grid", "requests", "partitions", "rho", "rho-nan", "rho-inf", "congestion",
            "congestion-nan", "congestion-inf", "taxis", "capacity", "window-nan", "window-other-scheme",
            "shock-radius-nan", "shock-delay-inf", "rebalance-lead-nan",
            "rebalance-cadence-inf", "rebalance-cadence-nan", "bench-scale-env",
            "workers-env-abc", "workers-env-0", "workers-env-negative", "workers-negative",
            "workers-0"])
    def test_one_error_line_and_exit_2(self, monkeypatch, capsys, argv, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "served" not in captured.out

    def test_a_value_error_out_of_the_run_keeps_its_traceback(self, monkeypatch):
        # The handler covers set-up only: the same exception type raised
        # by the simulation is a bug, not a bad flag.
        from repro.sim.engine import Simulator

        def broken(self):
            raise ValueError("accounting leak")

        monkeypatch.setattr(Simulator, "run", broken)
        with pytest.raises(ValueError, match="accounting leak"):
            main(["simulate", "--scheme", "no-sharing", *SMALL_WORLD])


#: The network ``repro replay *REPLAY_FLAGS`` builds (only the grid
#: and the seed shape it), for writing traces that fit it.
REPLAY_SPEC = ScenarioSpec(kind="peak", grid_rows=8, grid_cols=8, hourly_requests=60,
                           history_days=1, num_partitions=4, seed=3)
REPLAY_FLAGS = ["--grid", "8", "--partitions", "4", "--requests", "60", "--taxis", "10",
                "--seed", "3"]


class TestReplay:
    def test_replay_writes_one_decision_per_request(self, tmp_path, capsys):
        scenario = get_scenario(REPLAY_SPEC)
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w", encoding="utf-8") as fh:
            for request in synthetic_requests(scenario.engine, 200, seed=1):
                fh.write(json.dumps(request_to_dict(request)) + "\n")
        decisions = tmp_path / "decisions.jsonl"
        code = main(["replay", str(trace), *REPLAY_FLAGS, "--decisions", str(decisions)])
        assert code == 0
        assert "Replayed 200 requests (200 admitted, 0 rejected)" in capsys.readouterr().out
        with open(decisions, encoding="utf-8") as fh:
            stream = [json.loads(line) for line in fh]
        assert sorted(d["request_id"] for d in stream) == list(range(200))

    @pytest.mark.parametrize("cell", list(HOSTILE))
    def test_hostile_record_is_an_error_naming_its_line(self, tmp_path, monkeypatch, capsys,
                                                        cell):
        """Refused where it enters, like any malformed record: exit 2,
        one ``error:`` line naming the line, nothing of it admitted, and
        the run's accounting still closes."""
        scenario = get_scenario(REPLAY_SPEC)
        good, bad = synthetic_requests(scenario.engine, 2, seed=1)
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(request_to_dict(good)) + "\n"
            + json.dumps(hostile_payload(bad, cell, scenario.network.num_vertices)) + "\n"
        )
        built = []
        make_service = cli._make_service

        def keep(args):
            built.append(make_service(args))
            return built[-1]

        monkeypatch.setattr(cli, "_make_service", keep)
        assert main(["replay", str(trace), *REPLAY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}:2: bad request record: ") and err.count("\n") == 1
        [service] = built
        assert service.submitted == 1
        service.finish().check_balance()

    def test_replay_unwritable_decisions_path_is_a_clean_error(self, tmp_path, capsys):
        # Like `simulate --trace`: a sink that cannot be opened is a
        # usage error (exit 2), reported before the scenario is built.
        code = main(
            [
                "replay", str(tmp_path / "trace.jsonl"),
                "--decisions", str(tmp_path / "no_such_dir" / "decisions.jsonl"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no_such_dir" in err


class TestServiceFlags:
    """``replay`` and ``serve`` flags: one ``error:`` line and exit 2,
    before anything is served."""

    def test_rho_is_not_a_replay_flag(self, tmp_path, capsys):
        # Nothing in a replay reads it: the trace carries each deadline.
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(tmp_path / "trace.jsonl"), *REPLAY_FLAGS, "--rho", "0.2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rho 0.2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "serve"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_in_flight_must_be_positive(self, tmp_path, capsys, command, bound):
        trace = [str(tmp_path / "trace.jsonl")] if command == "replay" else []
        argv = [command, *trace, *REPLAY_FLAGS, "--max-in-flight", bound]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: max_in_flight must be positive\n"

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_outside_the_range_is_an_error(self, capsys, port):
        assert main(["serve", *REPLAY_FLAGS, "--port", port]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot bind 127.0.0.1:{port}: ") and err.count("\n") == 1


class TestCacheWarm:
    def test_unknown_experiment_is_a_clean_error(self, capsys):
        # Like every other bad input: "error: ..." and exit 2, not the
        # KeyError traceback figure_run_keys used to die with.
        assert main(["cache", "warm", "--experiments", "fig7", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment(s): nope (choose from ")


class TestCacheInfo:
    def test_info_prints_build_seconds_per_kind(self, tmp_path, monkeypatch, capsys):
        """"Where did my cold start go" from the store alone: each kind's
        row — the generated network's included — ends with the seconds
        its artifacts took to build, and the total row with their sum;
        ``cache clear`` removes the network with the rest."""
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
        assert main(["cache", "info"]) == 0
        assert "(empty)" in capsys.readouterr().out

        Scenario(ScenarioSpec(grid_rows=8, grid_cols=8, hourly_requests=60,
                              history_days=1, num_partitions=4, seed=3))
        assert main(["cache", "info"]) == 0
        rows = {
            fields[0]: fields
            for fields in map(str.split, capsys.readouterr().out.splitlines())
            if fields and fields[-1] == "build"
        }
        info = get_store().info()
        kinds = ("network", "apsp", "trace")
        assert set(rows) == {*kinds, "total"}
        for kind in kinds:
            assert rows[kind][1:] == [
                str(info[kind]["artifacts"]), "artifacts",
                f"{info[kind]['bytes'] / 1e6:.2f}", "MB",
                f"{info[kind]['build_s']:.2f}", "s", "build",
            ]
        total_s = sum(info[kind]["build_s"] for kind in kinds)
        assert rows["total"][1] == "3" and rows["total"][5] == f"{total_s:.2f}"

        assert main(["cache", "clear"]) == 0
        assert "removed 3 artifacts" in capsys.readouterr().out
        assert get_store().info() == {}

    def test_a_store_holding_hierarchies_stays_warm(self, tmp_path, monkeypatch, capsys):
        """A store written by a checkout that still stored contraction
        hierarchies keeps serving: a warm ``auto`` scenario builds and
        loads nothing new, ``cache info`` lists the ``ch`` kind that no
        code builds any more like any other, and ``cache clear`` removes
        it with the rest."""
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
        spec = ScenarioSpec(grid_rows=8, grid_cols=8, hourly_requests=60,
                            history_days=1, num_partitions=4, seed=3)
        cold = Scenario(spec)
        cold.landmark_graph()
        store = get_store()
        # What such a checkout saved: the hierarchy's arrays, keyed by the
        # network spec and its format version.  Stubs stand in for them;
        # nothing here reads their contents.
        n = cold.network.num_vertices
        stub = {"rank": np.arange(n, dtype=np.int64), "up_ptr": np.zeros(n + 1, dtype=np.int64)}
        store.save("ch", store.key_of("ch", {"network": cold._network_spec, "format": 2}),
                   stub, meta={"vertices": n, "shortcuts": 0, "build_s": 0.25})
        store.reset_stats()
        Scenario(spec).landmark_graph()
        assert sum(row["builds"] for row in store.stats().values()) == 0
        assert "ch" not in store.stats()

        assert main(["cache", "info"]) == 0
        rows = {fields[0]: fields for fields in map(str.split, capsys.readouterr().out.splitlines())
                if fields and fields[-1] == "build"}
        assert rows["ch"][1:3] == ["1", "artifacts"] and rows["ch"][5] == "0.25"
        stored = sum(row["artifacts"] for row in store.info().values())
        assert main(["cache", "clear"]) == 0
        assert f"removed {stored} artifacts" in capsys.readouterr().out
        assert store.info() == {}


@pytest.mark.parametrize("argv,flag", [
    (["simulate", *SMALL_WORLD, "--sp-mode", "ch"], "--sp-mode"),
    (["cache", "warm", "--ch-grid", "6"], "--ch-grid"),
], ids=["sp-mode-ch", "cache-warm-ch-grid"])
def test_removed_hierarchy_flags_are_usage_errors(capsys, argv, flag):
    """The ``ch`` backend is no CLI choice and nothing pre-builds a
    hierarchy: both exit 2 with one ``error:`` line naming the flag."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert flag in line
