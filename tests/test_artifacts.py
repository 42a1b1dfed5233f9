"""Artifact store: keys, round trips, invalidation, cross-process reuse."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import (
    ARTIFACT_DIR_ENV,
    ArtifactStore,
    canonical_json,
    get_store,
)
from repro.sim.scenario import Scenario, ScenarioSpec

MICRO_SPEC = ScenarioSpec(
    kind="peak",
    grid_rows=8,
    grid_cols=8,
    spacing_m=180.0,
    hourly_requests=120,
    history_days=2,
    num_partitions=9,
    offline_count=10,
    seed=3,
)


def _run_py(code: str, env_overrides: dict | None = None) -> str:
    """Run a snippet in a fresh interpreter, returning its stdout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_overrides:
        env.update(env_overrides)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


# ----------------------------------------------------------------------
# keys and canonical encoding
# ----------------------------------------------------------------------
def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 2, "a": [1, 2], "c": {"y": 1.5, "x": np.int64(3)}})
    b = canonical_json({"c": {"x": 3, "y": 1.5}, "a": [1, 2], "b": 2})
    assert a == b


def test_key_is_stable_and_spec_sensitive(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = {"generator": "grid_city", "rows": 8, "cols": 8, "seed": 3}
    assert store.key_of("apsp", spec) == store.key_of("apsp", dict(reversed(spec.items())))
    assert store.key_of("apsp", spec) != store.key_of("trace", spec)
    assert store.key_of("apsp", spec) != store.key_of("apsp", {**spec, "seed": 4})


def test_scenario_keys_change_with_every_generating_parameter(tmp_path, monkeypatch):
    """κ, demand rate λ, seed, and generator size all change the store key."""
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    base = Scenario(MICRO_SPEC)
    store = get_store()
    base_key = store.key_of("partition", base._partition_spec("bipartite", 9, 8))

    # κ (partition count) and k_t (transition clusters).
    assert store.key_of("partition", base._partition_spec("bipartite", 12, 8)) != base_key
    assert store.key_of("partition", base._partition_spec("bipartite", 9, 4)) != base_key
    # Method.
    assert store.key_of("partition", base._partition_spec("grid", 9, 8)) != base_key

    # Demand rate (λ), seed, generator size change the trace spec and
    # hence every downstream key.
    from dataclasses import replace

    for field, value in (
        ("hourly_requests", 150),
        ("seed", 4),
        ("grid_rows", 9),
    ):
        other = Scenario(replace(MICRO_SPEC, **{field: value}))
        other_key = store.key_of("partition", other._partition_spec("bipartite", 9, 8))
        assert other_key != base_key, field


# ----------------------------------------------------------------------
# save/load round trips
# ----------------------------------------------------------------------
def test_save_load_round_trip_and_mmap(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key_of("apsp", {"n": 5})
    dist = np.arange(25, dtype=np.float64).reshape(5, 5)
    pred = np.arange(25, dtype=np.int32).reshape(5, 5)
    store.save("apsp", key, {"dist": dist, "pred": pred}, meta={"n": 5})

    art = store.load("apsp", key)
    assert art is not None
    assert isinstance(art["dist"], np.memmap)
    assert np.array_equal(np.asarray(art["dist"]), dist)
    assert np.array_equal(np.asarray(art["pred"]), pred)
    assert art.meta["n"] == 5
    assert store.stats()["apsp"]["mmap_loads"] == 1


def test_corrupt_artifact_counts_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key_of("trace", {"x": 1})
    store.save("trace", key, {"a": np.ones(3)}, meta={})
    # Remove the array file but keep meta.json: must degrade to a miss.
    victim = next(store._dir_of("trace", key).glob("*.npy"))
    victim.unlink()
    assert store.load("trace", key) is None
    assert store.stats()["trace"]["misses"] >= 1


def test_disabled_store_returns_none(monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, "off")
    assert get_store() is None


def test_info_and_clear(tmp_path):
    store = ArtifactStore(tmp_path)
    key = store.key_of("trace", {"x": 2})
    store.save("trace", key, {"a": np.ones(4)}, meta={})
    info = store.info()
    assert info["trace"]["artifacts"] == 1
    assert info["trace"]["bytes"] > 0
    assert info["trace"]["build_s"] == 0.0  # saved without one (an older checkout's)
    assert store.clear() == 1
    assert store.info() == {}


def test_info_totals_recorded_build_seconds(tmp_path):
    store = ArtifactStore(tmp_path)
    for x, build_s in ((1, 0.25), (2, 1.5)):
        store.save("trace", store.key_of("trace", {"x": x}), {"a": np.ones(2)},
                   meta={"build_s": build_s})
    store.save("ch", store.key_of("ch", {"x": 1}), {"a": np.ones(2)}, meta={"build_s": 0.5})
    info = store.info()
    assert info["trace"]["build_s"] == 1.75
    assert info["ch"]["build_s"] == 0.5


# ----------------------------------------------------------------------
# scenario integration: warm loads are bit-identical and build-free
# ----------------------------------------------------------------------
def test_warm_scenario_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    cold = Scenario(MICRO_SPEC)
    cold_part = cold.partitioning()
    cold_lg = cold.landmark_graph()
    cold_pred = cold.demand_predictor(cold_part)

    warm = Scenario(MICRO_SPEC)
    warm_part = warm.partitioning()
    warm_lg = warm.landmark_graph()
    warm_pred = warm.demand_predictor(warm_part)

    assert not cold.engine.full_mmapped and warm.engine.full_mmapped
    assert warm.mmap_bytes() > 0
    assert np.array_equal(cold.history.release_times, warm.history.release_times)
    assert np.array_equal(cold.history.origins, warm.history.origins)
    assert np.array_equal(cold_part.labels, warm_part.labels)
    assert np.array_equal(
        cold_part.transition_model.matrix, warm_part.transition_model.matrix
    )
    assert np.array_equal(cold_lg.to_tables()["landmarks"], warm_lg.to_tables()["landmarks"])
    assert np.array_equal(
        cold_lg.to_tables()["landmark_cost"], warm_lg.to_tables()["landmark_cost"]
    )
    # Not just equal *sets*: identical iteration order.  Probabilistic
    # routing enumerates corridors by iterating these sets under a path
    # budget, so a layout difference between a fresh build and a
    # table-restored graph would silently change dispatch decisions.
    for z in range(cold_lg.num_partitions):
        assert list(cold_lg.neighbors(z)) == list(warm_lg.neighbors(z))
    assert np.array_equal(cold_pred.rates, warm_pred.rates)

    # The generator RNG was replayed: later sampling stays identical.
    w_cold = cold.demand.generate_window(1, 8, 1, weekend=False)
    w_warm = warm.demand.generate_window(1, 8, 1, weekend=False)
    assert np.array_equal(w_cold.release_times, w_warm.release_times)
    assert np.array_equal(w_cold.origins, w_warm.origins)
    assert np.array_equal(w_cold.taxi_ids, w_warm.taxi_ids)


def test_warm_scenario_loads_its_network_and_generates_none(tmp_path, monkeypatch):
    """The network is a stored product like the others: a warm build
    loads it once, builds nothing and never calls the generator, and
    the loaded network is the generated one — coordinates, CSR arrays,
    ``edges()`` order and the pinned digest."""
    from repro.sim import scenario as sc
    from tests.test_generators import network_digest

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    cold = Scenario(MICRO_SPEC)
    store = get_store()
    assert store.stats()["network"]["builds"] == 1
    store.reset_stats()
    calls = []
    generate = sc.grid_city
    monkeypatch.setattr(sc, "grid_city", lambda **kw: calls.append(kw) or generate(**kw))

    warm = Scenario(MICRO_SPEC)
    assert calls == []
    assert store.stats()["network"] == {"loads": 1, "misses": 0, "builds": 0, "mmap_loads": 1}
    assert sum(row["builds"] for row in store.stats().values()) == 0
    a, b = cold.network, warm.network
    assert a.xy.tobytes() == b.xy.tobytes() and type(b.xy) is np.ndarray
    for x, y in zip(a.csr_arrays, b.csr_arrays):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert list(a.edges()) == list(b.edges())
    assert network_digest(a) == network_digest(b)
    assert a.speed_mps == b.speed_mps


def test_built_artifacts_record_their_build_seconds(tmp_path, monkeypatch):
    """Every product ``Scenario._stored`` builds carries ``build_s`` in
    its meta, next to what ``pack`` put there; loading adds nothing."""
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    cold = Scenario(MICRO_SPEC)
    cold.landmark_graph()
    store = get_store()
    kinds = set(store.info())
    assert {"network", "apsp", "trace", "partition", "landmarks"} <= kinds
    for kind in kinds:
        (entry,) = store.entries(kind)
        assert entry["meta"]["build_s"] >= 0.0, kind
    (trace,) = store.entries("trace")
    assert trace["meta"]["rows"] == len(cold.history) + len(cold.window_trips)
    # pack_apsp hands its key spec out as meta: it must not grow a field.
    assert "build_s" not in cold._network_spec
    before = store.info()
    Scenario(MICRO_SPEC).landmark_graph()
    assert store.info() == before


def test_trace_store_written_by_the_reference_generator_stays_warm(tmp_path, monkeypatch):
    """A trace artifact written by the ``rng.choice`` generator (any
    checkout before the sampling tables) is a valid warm store for this
    one: same key, and the bytes this generator would have written."""
    from repro.sim import scenario as sc
    from tests.oracles import ReferenceDemand

    def npy_bytes(store, key):
        return {f.name: f.read_bytes() for f in sorted(store._dir_of("trace", key).glob("*.npy"))}

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "reference"))
    with monkeypatch.context() as patched:
        patched.setattr(sc, "ChengduLikeDemand", ReferenceDemand)
        reference = Scenario(MICRO_SPEC)
    store = get_store()
    assert isinstance(reference.demand, ReferenceDemand)
    assert store.stats()["trace"]["builds"] == 1
    key = store.key_of("trace", reference._trace_spec)
    store.reset_stats()

    warm = Scenario(MICRO_SPEC)
    assert type(warm.demand) is sc.ChengduLikeDemand
    assert store.stats()["trace"] == {"loads": 1, "misses": 0, "builds": 0, "mmap_loads": 1}
    assert np.array_equal(warm.history.release_times, reference.history.release_times)

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "cold"))
    cold = Scenario(MICRO_SPEC)
    cold_store = get_store()
    assert cold_store.stats()["trace"]["builds"] == 1
    assert cold_store.key_of("trace", cold._trace_spec) == key
    assert npy_bytes(cold_store, key) == npy_bytes(store, key)
    # ...and whatever is sampled next agrees across all three.
    windows = [s.demand.generate_window(1, 8, 1) for s in (reference, warm, cold)]
    for other in windows[1:]:
        assert np.array_equal(other.origins, windows[0].origins)
        assert np.array_equal(other.taxi_ids, windows[0].taxi_ids)


def test_store_built_on_the_coo_csr_stays_warm(tmp_path, monkeypatch):
    """A store whose all-pairs table was built from the COO ``to_csr``
    (any checkout before the numpy CSR arrays) is a valid warm store for
    this one, and holds the bytes this one would have written."""
    from repro.network.graph import RoadNetwork
    from tests.oracles import reference_to_csr

    def npy_bytes(store):
        return {str(f.relative_to(store.root)): f.read_bytes()
                for f in sorted(store.root.rglob("*.npy"))}

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "reference"))
    with monkeypatch.context() as patched:
        patched.setattr(RoadNetwork, "to_csr", reference_to_csr)
        Scenario(MICRO_SPEC)  # builds the engine's table
    store = get_store()
    assert sum(row["builds"] for row in store.stats().values()) > 0
    store.reset_stats()

    Scenario(MICRO_SPEC)
    assert sum(row["builds"] for row in store.stats().values()) == 0

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "cold"))
    Scenario(MICRO_SPEC)
    assert npy_bytes(get_store()) == npy_bytes(store)


_FRESH_PROCESS_SNIPPET = """
import json
import numpy as np
from repro import artifacts
from repro.sim.scenario import Scenario, ScenarioSpec
spec = ScenarioSpec(kind="peak", grid_rows=8, grid_cols=8, spacing_m=180.0,
                    hourly_requests=120, history_days=2, num_partitions=9,
                    offline_count=10, seed=3)
s = Scenario(spec)
part = s.partitioning()
lg = s.landmark_graph()
stats = artifacts.stats()
print(json.dumps({
    "builds": sum(v["builds"] for v in stats.values()),
    "mmap_loads": sum(v["mmap_loads"] for v in stats.values()),
    "mmapped": bool(s.engine.full_mmapped),
    "labels_sha": __import__("hashlib").sha256(part.labels.tobytes()).hexdigest(),
    "tm_sha": __import__("hashlib").sha256(
        np.ascontiguousarray(part.transition_model.matrix).tobytes()).hexdigest(),
    "cost_sha": __import__("hashlib").sha256(
        np.ascontiguousarray(lg.to_tables()["landmark_cost"]).tobytes()).hexdigest(),
}))
"""


def test_second_process_skips_all_recomputation(tmp_path):
    """Acceptance: a fresh process on a warm store does zero builds."""
    env = {ARTIFACT_DIR_ENV: str(tmp_path)}
    first = json.loads(_run_py(_FRESH_PROCESS_SNIPPET, env))
    assert first["builds"] > 0  # cold process did the work once

    second = json.loads(_run_py(_FRESH_PROCESS_SNIPPET, env))
    assert second["builds"] == 0
    assert second["mmap_loads"] > 0
    assert second["mmapped"] is True
    # And the loaded content hashes to exactly the cold build's bytes.
    for field in ("labels_sha", "tm_sha", "cost_sha"):
        assert first[field] == second[field]


def test_preprocessing_deterministic_across_fresh_processes(tmp_path):
    """Bipartite/k-means/transition builds are seed-deterministic: two
    *cold* processes (separate stores) produce byte-identical artifacts."""
    a = json.loads(_run_py(_FRESH_PROCESS_SNIPPET, {ARTIFACT_DIR_ENV: str(tmp_path / "a")}))
    b = json.loads(_run_py(_FRESH_PROCESS_SNIPPET, {ARTIFACT_DIR_ENV: str(tmp_path / "b")}))
    assert a["builds"] > 0 and b["builds"] > 0
    for field in ("labels_sha", "tm_sha", "cost_sha"):
        assert a[field] == b[field]


def test_congestion_variants_share_speed_independent_artifacts(tmp_path, monkeypatch):
    """Distances are in metres, so congestion only re-keys landmark costs."""
    from dataclasses import replace

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    base = Scenario(MICRO_SPEC)
    base.partitioning()
    base.landmark_graph()
    store = get_store()
    store.reset_stats()

    slow = Scenario(replace(MICRO_SPEC, congestion=0.5))
    slow.partitioning()
    slow.landmark_graph()
    stats = store.stats()
    # The network, APSP, trace and partition artifacts are reused...
    assert stats["network"] == {"loads": 1, "misses": 0, "builds": 0, "mmap_loads": 1}
    assert stats["apsp"]["loads"] == 1
    assert stats["trace"]["loads"] == 1
    assert stats["partition"]["loads"] == 1
    # ...but landmark costs are in seconds, so they rebuild.
    assert stats["landmarks"]["builds"] == 1
    # The one stored network serves both speeds.
    assert len(store.entries("network")) == 1
    assert slow.network.speed_mps == 0.5 * base.network.speed_mps
    u, v, _length = next(base.network.edges())
    assert slow.network.edge_cost(u, v) == pytest.approx(2.0 * base.network.edge_cost(u, v))


def test_landmark_key_uses_label_content(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    s = Scenario(MICRO_SPEC)
    part = s.partitioning()
    lg_key_spec = {
        "network": s._network_spec,
        "labels_sha": hashlib.sha256(part.labels.tobytes()).hexdigest(),
        "speed_mps": s.network.speed_mps,
        "engine_mode": s.engine.mode,
    }
    store = get_store()
    key = store.key_of("landmarks", lg_key_spec)
    s.landmark_graph()
    assert store.load("landmarks", key) is not None


def test_warm_engine_reads_the_mapped_table_as_plain_ndarray(tmp_path, monkeypatch):
    """The store hands out ``np.memmap``; the engine keeps base-class views
    of the same pages — no per-read subclass machinery, no private copy."""
    from repro.memo import BoundedMemo
    from repro.sim import scenario as sc

    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(sc, "_SCENARIOS", BoundedMemo(1))
    Scenario(MICRO_SPEC).engine  # cold: builds and saves the table
    handed_out = {}
    load = ArtifactStore.load

    def recording_load(self, kind, key):
        art = load(self, kind, key)
        handed_out[kind] = art
        return art

    monkeypatch.setattr(ArtifactStore, "load", recording_load)
    get_store().reset_stats()
    warm = sc.get_scenario(MICRO_SPEC)
    engine = warm.engine
    stored_dist, stored_pred = handed_out["apsp"]["dist"], handed_out["apsp"]["pred"]
    assert isinstance(stored_dist, np.memmap) and isinstance(stored_pred, np.memmap)

    assert engine.full_mmapped is True and get_store().stats()["apsp"]["builds"] == 0
    assert engine.mmap_bytes() == stored_dist.nbytes + stored_pred.nbytes
    assert warm.mmap_bytes() == engine.mmap_bytes()
    assert sc.scenario_cache_stats()["mmap_bytes"] == engine.mmap_bytes()
    for matrix, stored in zip(engine.full_matrices(), (stored_dist, stored_pred)):
        assert type(matrix) is np.ndarray
        assert np.shares_memory(matrix, stored)
        assert not matrix.flags.writeable
    for v in (0, warm.network.num_vertices - 1):
        row, col = engine.dist_row(v), engine.dist_col(v)
        assert type(row) is np.ndarray and type(col) is np.ndarray
        assert np.shares_memory(row, stored_dist) and np.shares_memory(col, stored_dist)
        assert not row.flags.writeable and not col.flags.writeable
        assert np.array_equal(row, stored_dist[v]) and np.array_equal(col, stored_dist[:, v])
    with pytest.raises(ValueError):
        engine.dist_row(0)[1] = 0.0


# ----------------------------------------------------------------------
# bounded scenario cache (satellite: memory bounding + eviction)
# ----------------------------------------------------------------------
def test_scenario_cache_bounded_and_eviction_frees_memory(monkeypatch):
    import gc
    import weakref
    from dataclasses import replace

    from repro.memo import BoundedMemo
    from repro.sim import scenario as sc

    monkeypatch.setattr(sc, "_SCENARIOS", BoundedMemo(1))
    s1 = sc.get_scenario(replace(MICRO_SPEC, seed=101))
    ref = weakref.ref(s1)
    engine_ref = weakref.ref(s1.engine)
    assert sc.scenario_cache_stats()["entries"] == 1
    assert sc.scenario_cache_stats()["memory_bytes"] >= s1.memory_bytes()

    sc.get_scenario(replace(MICRO_SPEC, seed=102))  # evicts s1
    stats = sc.scenario_cache_stats()
    assert stats["entries"] == 1
    assert stats["evictions"] >= 1

    del s1
    gc.collect()
    assert ref() is None, "evicted scenario must be collectable"
    assert engine_ref() is None, "eviction must free the engine's matrices/mmaps"


def test_scenario_cache_rejects_bad_size():
    from repro.sim import scenario as sc

    assert sc._SCENARIOS.capacity == sc.SCENARIO_CACHE_SIZE
    with pytest.raises(ValueError):
        type(sc._SCENARIOS)(0)


def test_info_is_independent_of_creation_order(tmp_path):
    """REP008 regression: the inventory walk must not depend on the
    filesystem's directory-listing order, so two stores holding the
    same artifacts — written in different orders — report identically."""
    payloads = [("trace", {"x": i}, {"a": np.full(4, float(i))}) for i in range(4)]
    stores = (ArtifactStore(tmp_path / "fwd"), ArtifactStore(tmp_path / "rev"))
    for kind, spec, arrays in payloads:
        stores[0].save(kind, stores[0].key_of(kind, spec), arrays, meta={})
    for kind, spec, arrays in reversed(payloads):
        stores[1].save(kind, stores[1].key_of(kind, spec), arrays, meta={})
    assert stores[0].info() == stores[1].info()
