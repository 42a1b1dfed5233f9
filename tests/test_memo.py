"""Tests for :mod:`repro.memo` — the one bounded-memo primitive — and
for the rule that nothing else in ``src/repro`` rolls its own."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import repro
from repro.experiments import runner
from repro.memo import BoundedMemo, memo_stats
from repro.sim.scenario import ScenarioSpec, get_scenario


class TestBoundedMemo:
    def test_capacity_bound_and_eviction_tally(self):
        memo = BoundedMemo(3)
        for k in range(10):
            memo.store(k, k * k)
            assert len(memo) <= 3
        assert list(memo) == [7, 8, 9]
        assert memo.evictions == 7

    def test_lookup_touches_and_counts(self):
        memo = BoundedMemo(2)
        memo.store("a", 1)
        memo.store("b", 2)
        assert memo.lookup("a") == 1  # "a" is now the most recent
        assert memo.lookup("zzz") is None
        memo.store("c", 3)  # evicts "b", the least recently used
        assert list(memo) == ["a", "c"]
        assert (memo.hits, memo.misses, memo.evictions) == (1, 1, 1)

    def test_store_returns_value_and_refreshes_existing_key(self):
        memo = BoundedMemo(2)
        assert memo.store("a", 1) == 1
        memo.store("b", 2)
        memo.store("a", 10)  # overwrite: no growth, "a" most recent
        memo.store("c", 3)
        assert dict(memo) == {"a": 10, "c": 3}
        assert memo.evictions == 1

    def test_plain_reads_neither_count_nor_touch(self):
        memo = BoundedMemo(2)
        memo.store("a", 1)
        memo.store("b", 2)
        assert memo.get("a") == 1 and "a" in memo and memo.get("x") is None
        assert (memo.hits, memo.misses) == (0, 0)
        memo.store("c", 3)
        assert "a" not in memo  # the peek did not protect it

    def test_stats_shape(self):
        memo = BoundedMemo(4)
        memo.store(1, "x")
        memo.lookup(1)
        memo.lookup(2)
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1, "evictions": 0}

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_validated(self, capacity):
        with pytest.raises(ValueError):
            BoundedMemo(capacity)

    def test_memo_stats_flattens_and_sums_equal_names(self):
        a, b, c = BoundedMemo(2), BoundedMemo(2), BoundedMemo(2)
        a.store(1, 1)
        a.lookup(1)
        b.store(1, 1)
        b.store(2, 2)
        b.lookup(3)
        assert memo_stats([("x.legs", a), ("x.legs", b), ("y", c)]) == {
            "x.legs_hits": 1, "x.legs_misses": 1, "x.legs_entries": 3,
            "x.legs_evictions": 0,
            "y_hits": 0, "y_misses": 0, "y_entries": 0, "y_evictions": 0,
        }


def test_no_hand_rolled_lru_outside_memo():
    """New mechanism displaces old: ``OrderedDict`` / ``popitem`` /
    ``move_to_end`` appear as code only in ``repro/memo.py`` (the
    method-name string tables of ``repro.analysis`` are not code)."""
    banned = {"OrderedDict", "popitem", "move_to_end"}
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "memo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None and name.rsplit(".", 1)[-1] in banned:
                offenders.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert not offenders, offenders


def test_clear_cache_releases_the_network():
    """The corridor-subgraph memo lives on the network, so dropping the
    scenario drops it; the old module-global LRU keyed by ``(network,
    allowed)`` kept the network alive after ``clear_cache()``."""
    spec = ScenarioSpec(
        kind="nonpeak", grid_rows=8, grid_cols=8, hourly_requests=150,
        history_days=2, num_partitions=9, offline_count=30, seed=11,
    )
    metrics = runner.run_simple(spec, "mt-share-pro", num_taxis=12)
    assert metrics.counters["kernel.subgraph_builds"] > 0
    network_ref = weakref.ref(get_scenario(spec).network)
    del metrics
    runner.clear_cache()
    gc.collect()
    assert network_ref() is None
