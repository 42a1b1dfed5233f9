"""Tests for the ``repro.obs`` observability layer.

Covers the aggregation primitives (StageStats, stage nesting, counters,
gauges), the JSONL trace writer, the null-object opt-out, and the
end-to-end contract: a seed-scenario simulation must surface per-stage
dispatch timings and the lazy-cache hit rate in its metrics at an
instrumentation overhead below 5% of the run's wall time.
"""

import json
from time import perf_counter, sleep

import pytest

from repro.core.payment import PaymentModel
from repro.reporting import observability_table
from repro.obs import NULL, Instrumentation, JsonlTraceWriter, NullInstrumentation, StageStats
from repro.obs import trace as trace_module
from repro.sim.engine import Simulator


class TestStageStats:
    def test_add_folds_spans(self):
        s = StageStats()
        s.add(0.2)
        s.add(0.1)
        s.add(0.3)
        assert s.count == 3
        assert s.total_s == pytest.approx(0.6)
        assert s.mean_s == pytest.approx(0.2)
        assert s.min_s == pytest.approx(0.1)
        assert s.max_s == pytest.approx(0.3)

    def test_empty_stats(self):
        s = StageStats()
        assert s.count == 0
        assert s.mean_s == 0.0
        d = s.as_dict()
        assert d["count"] == 0
        assert d["min_s"] == 0.0  # not inf in snapshots


class ListTrace(list):
    """An in-memory trace writer: the events a registry emits, in order."""

    emit = list.append

    def close(self):
        pass


class TestInstrumentation:
    def test_stage_records_span(self):
        obs = Instrumentation()
        with obs.stage("x"):
            sleep(0.001)
        assert obs.stages["x"].count == 1
        assert obs.stages["x"].total_s > 0.0

    def test_nesting_is_inclusive_and_tracked(self):
        trace = ListTrace()
        obs = Instrumentation(trace=trace)
        obs.event("probe")
        with obs.stage("outer"):
            obs.event("probe")
            with obs.stage("inner"):
                obs.event("probe")
                sleep(0.001)
            obs.event("probe")
        obs.event("probe")
        # Events are attributed to the innermost open stage.
        assert [e.get("stage") for e in trace if e["ev"] == "probe"] == [
            None, "outer", "inner", "outer", None,
        ]
        # Outer timing includes the nested inner span.
        assert obs.stages["outer"].total_s >= obs.stages["inner"].total_s

    def test_stack_unwinds_on_exception(self):
        trace = ListTrace()
        obs = Instrumentation(trace=trace)
        with pytest.raises(RuntimeError):
            with obs.stage("boom"):
                raise RuntimeError("x")
        obs.event("after")
        assert "stage" not in trace[-1]
        assert obs.stages["boom"].count == 1  # the span is still recorded

    def test_counters_accumulate(self):
        obs = Instrumentation()
        obs.count("c")
        obs.count("c", 4)
        assert obs.counters["c"] == 5

    def test_gauge_overwrites(self):
        obs = Instrumentation()
        obs.gauge("g", 7)
        obs.gauge("g", 3)
        assert obs.counters["g"] == 3

    def test_snapshots_are_plain_copies(self):
        obs = Instrumentation()
        with obs.stage("s"):
            pass
        obs.count("c", 2)
        stages = obs.stage_snapshot()
        counters = obs.counter_snapshot()
        assert set(stages["s"]) == {"count", "total_s", "mean_s", "min_s", "max_s"}
        counters["c"] = 99
        assert obs.counters["c"] == 2  # mutation does not leak back

    def test_ops_counts_aggregations(self):
        obs = Instrumentation()
        with obs.stage("s"):
            pass
        obs.count("c")
        obs.gauge("g", 1)
        assert obs.ops == 3


class TestNullInstrumentation:
    def test_everything_is_a_noop(self):
        null = NullInstrumentation()
        with null.stage("x"):
            null.count("c", 10)
            null.gauge("g", 5)
            null.record("y", 1.0)
            null.event("e", a=1)
        assert null.stages == {}
        assert null.counters == {}
        assert null.ops == 0
        assert not null.enabled

    def test_shared_instance(self):
        assert isinstance(NULL, NullInstrumentation)
        assert Instrumentation.enabled and not NULL.enabled


class TestJsonlTrace:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_module, "BUFFER_LINES", 2)
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(str(path)) as w:
            for i in range(5):
                w.emit({"ev": "x", "i": i})
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["i"] for ln in lines] == [0, 1, 2, 3, 4]
        assert w.events_written == 5

    def test_emit_after_close_raises(self, tmp_path):
        w = JsonlTraceWriter(str(tmp_path / "t.jsonl"))
        w.close()
        w.close()  # idempotent
        with pytest.raises(ValueError):
            w.emit({"ev": "x"})

    def test_stage_exits_and_events_are_traced(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs = Instrumentation(trace=JsonlTraceWriter(str(path)))
        with obs.stage("outer"):
            obs.event("custom", value=42)
        obs.close()
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        kinds = [e["ev"] for e in events]
        assert kinds == ["custom", "stage"]
        # The custom event is attributed to the innermost open stage.
        assert events[0]["stage"] == "outer"
        assert events[0]["value"] == 42
        assert events[1]["name"] == "outer"


@pytest.fixture(scope="module")
def obs_run(test_scenario):
    """One instrumented mT-Share run on the shared seed scenario."""
    sim = Simulator(
        test_scenario.make_scheme("mt-share"),
        test_scenario.make_fleet(15, seed=1),
        test_scenario.requests(),
        payment=PaymentModel(),
    )
    metrics = sim.run()
    return sim, metrics


class TestEndToEnd:
    def test_metrics_carry_stage_timings(self, obs_run):
        _sim, m = obs_run
        for stage in ("sim.dispatch", "match.candidates", "match.insertion",
                      "match.planning", "route.basic"):
            assert stage in m.stages, f"missing stage {stage}"
            assert m.stages[stage]["count"] > 0
            assert m.stages[stage]["total_s"] >= 0.0
        # Sub-stages nest inside the dispatch span (inclusive timings).
        assert m.stage_total_ms("match.candidates") <= m.stage_total_ms("sim.dispatch")

    def test_metrics_carry_counters(self, obs_run):
        _sim, m = obs_run
        c = m.counters
        assert c["match.candidates_found"] > 0
        assert c["match.insertions_evaluated"] > 0
        assert c["match.routes_planned"] > 0
        assert c["sim.taxi_advances"] > 0
        assert c["index.partition_entries"] >= 0
        assert c["index.clusters"] >= 0

    def test_cache_hit_rate_reported(self, obs_run):
        _sim, m = obs_run
        hits = m.counters.get("spe.cache_hits", 0)
        misses = m.counters.get("spe.cache_misses", 0)
        assert hits + misses > 0
        assert 0.0 <= m.lazy_cache_hit_rate <= 1.0
        assert m.lazy_cache_hit_rate == pytest.approx(hits / (hits + misses))
        assert "cache_hit_rate" in m.summary()

    def test_summary_exposes_stage_timings(self, obs_run):
        _sim, m = obs_run
        s = m.summary()
        for key in ("stage_candidates_ms", "stage_insertion_ms", "stage_planning_ms"):
            assert key in s

    def test_observability_table_renders(self, obs_run):
        _sim, m = obs_run
        table = observability_table(m)
        assert table is not None
        text = table.render()
        assert "match.planning" in text
        assert "total_ms" in text
        assert any("cache" in note for note in table.notes)

    def test_observability_table_none_without_stages(self, obs_run):
        _sim, m = obs_run
        bare = type(m)(scheme_name="bare")
        assert observability_table(bare) is None

    def test_overhead_below_five_percent(self, obs_run):
        """Aggregation cost, extrapolated from a per-op microbenchmark
        times the run's recorded op count, must stay under 5% of the
        run's wall time (the ISSUE's overhead budget)."""
        sim, m = obs_run
        probe = Instrumentation()
        n = 20_000
        t0 = perf_counter()
        for _ in range(n):
            probe.record("x", 0.0)
        per_record = (perf_counter() - t0) / n
        t0 = perf_counter()
        for _ in range(n):
            probe.count("y")
        per_count = (perf_counter() - t0) / n
        per_op = max(per_record, per_count)  # conservative upper bound
        overhead_s = sim.obs.ops * per_op
        assert overhead_s <= 0.05 * m.wall_time_s, (
            f"instrumentation overhead {overhead_s * 1e3:.2f} ms exceeds 5% "
            f"of wall time {m.wall_time_s * 1e3:.2f} ms ({sim.obs.ops} ops)"
        )

    def test_trace_file_from_simulator(self, tmp_path, test_scenario):
        path = tmp_path / "events.jsonl"
        Simulator(
            test_scenario.make_scheme("mt-share"),
            test_scenario.make_fleet(8, seed=2),
            test_scenario.requests(),
            trace_path=str(path),
        ).run()
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert events, "trace file is empty"
        kinds = {e["ev"] for e in events}
        assert "dispatch" in kinds
        assert "stage" in kinds
        dispatches = [e for e in events if e["ev"] == "dispatch"]
        assert all("elapsed_ms" in e and "matched" in e for e in dispatches)
