"""Tests for the synthetic road-network generators."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from repro.network import generators
from repro.network.generators import grid_city, ring_radial_city


def is_strongly_connected(net) -> bool:
    rows, cols = [], []
    for u, v, _l in net.edges():
        rows.append(u)
        cols.append(v)
    mat = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(net.num_vertices, net.num_vertices),
    )
    n, _ = csgraph.connected_components(mat, directed=True, connection="strong")
    return n == 1


class TestGridCity:
    def test_default_is_strongly_connected(self):
        net = grid_city(rows=10, cols=10, seed=1)
        assert is_strongly_connected(net)

    def test_deterministic_for_seed(self):
        a = grid_city(rows=8, cols=8, seed=42)
        b = grid_city(rows=8, cols=8, seed=42)
        assert a.num_vertices == b.num_vertices
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = grid_city(rows=8, cols=8, seed=1)
        b = grid_city(rows=8, cols=8, seed=2)
        assert list(a.edges()) != list(b.edges())

    def test_vertex_count_bounded(self):
        net = grid_city(rows=6, cols=7, seed=0)
        assert 1 <= net.num_vertices <= 42

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            grid_city(rows=1, cols=5)

    def test_no_removals_keeps_full_grid(self, monkeypatch):
        monkeypatch.setattr(generators, "REMOVAL_RATE", 0.0)
        monkeypatch.setattr(generators, "ONE_WAY_RATE", 0.0)
        net = grid_city(rows=5, cols=5, seed=0)
        assert net.num_vertices == 25
        assert net.num_edges == 2 * (2 * 5 * 4)  # 40 undirected segments

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=100))
    def test_always_strongly_connected(self, size, seed):
        with mock.patch.multiple(generators, REMOVAL_RATE=0.15, ONE_WAY_RATE=0.2):
            net = grid_city(rows=size, cols=size, seed=seed)
        assert is_strongly_connected(net)

    def test_spacing_scales_extent(self, monkeypatch):
        monkeypatch.setattr(generators, "JITTER", 0.0)
        monkeypatch.setattr(generators, "REMOVAL_RATE", 0.0)
        small = grid_city(rows=5, cols=5, spacing_m=100.0, seed=0)
        big = grid_city(rows=5, cols=5, spacing_m=300.0, seed=0)
        assert big.xy[:, 0].max() == pytest.approx(3 * small.xy[:, 0].max())


def network_digest(net) -> tuple[str, str]:
    """``(sha256(xy), sha256(edge list))``, truncated to 16 hex digits each."""
    edges = list(net.edges())
    ends = np.array([(u, v) for u, v, _length in edges], dtype=np.int64)
    lengths = np.array([length for _u, _v, length in edges], dtype=np.float64)
    return (
        hashlib.sha256(np.ascontiguousarray(net.xy, dtype=np.float64).tobytes()).hexdigest()[:16],
        hashlib.sha256(ends.tobytes() + lengths.tobytes()).hexdigest()[:16],
    )


class TestLargestSCC:
    """The network may not move by a vertex: artifact keys hash the
    scenario's *spec*, so a generator that kept a different vertex set
    (or numbered it differently) would silently pair new networks with
    stored network / APSP / partition / trace artifacts."""

    #: The content every store written since the artifact store exists
    #: was keyed to (scipy components, first of the largest kept).
    #: The three benchmark cities (``benchmarks/e2e/workloads.py``,
    #: ``CITY_SEED = 1``) and the tier-1 ``test_spec``.
    PINS = {
        "CITY18": (dict(rows=18, cols=18, spacing_m=180.0, seed=1), 324, 1096,
                   ("eeac10c25936e709", "ff4889e410050bad")),
        "SOAK10": (dict(rows=10, cols=10, spacing_m=120.0, seed=1), 100, 322,
                   ("f817ae068175b497", "9d46db2c18702f50")),
        "CH40": (dict(rows=40, cols=40, spacing_m=180.0, seed=1), 1599, 5535,
                 ("f570c88d9a6fcd5b", "5c499215f33863bf")),
        "test_spec": (dict(rows=12, cols=12, spacing_m=180.0, seed=3), 144, 458,
                      ("72606bab9039e913", "bba8c9a8829a8b07")),
    }

    @pytest.mark.parametrize("city", PINS)
    def test_network_content_is_pinned(self, city):
        kwargs, vertices, edges, digest = self.PINS[city]
        net = grid_city(**kwargs)
        assert (net.num_vertices, net.num_edges) == (vertices, edges)
        assert network_digest(net) == digest


class TestRingRadialCity:
    def test_connected(self):
        net = ring_radial_city(num_rings=4, num_radials=8, seed=0)
        assert is_strongly_connected(net)

    def test_vertex_count(self):
        net = ring_radial_city(num_rings=3, num_radials=6, seed=0)
        assert net.num_vertices == 1 + 3 * 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ring_radial_city(num_rings=0)
        with pytest.raises(ValueError):
            ring_radial_city(num_radials=2)


class TestSmallTestNetwork:
    def test_layout(self, tiny_net):
        assert tiny_net.num_vertices == 9
        assert tiny_net.xy[0].tolist() == [0.0, 0.0]
        assert tiny_net.xy[8].tolist() == [200.0, 200.0]

    def test_strongly_connected(self, tiny_net):
        assert is_strongly_connected(tiny_net)
