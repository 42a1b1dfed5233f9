"""Unit tests for the road-network graph."""

import math

import numpy as np
import pytest

from repro.network.generators import grid_city
from repro.network.graph import DEFAULT_SPEED_MPS, InducedSubgraph, RoadNetwork, RoadNetworkError
from tests.conftest import is_path
from tests.oracles import reference_edge_dict, reference_induced_subgraph, reference_to_csr
from tests.test_generators import TestLargestSCC as _Pinned  # aliased: not collected twice


def line_network(n=4, spacing=100.0, speed=DEFAULT_SPEED_MPS):
    """0 - 1 - 2 - ... - (n-1), bidirectional."""
    xy = [(i * spacing, 0.0) for i in range(n)]
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    return RoadNetwork(xy, edges, speed_mps=speed)


class TestConstruction:
    def test_basic_counts(self, tiny_net):
        assert tiny_net.num_vertices == 9
        assert tiny_net.num_edges == 24  # 12 undirected grid edges, both ways

    def test_empty_vertices_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork(np.empty((0, 2)), [])

    def test_bad_shape_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork(np.zeros((3, 3)), [])

    def test_self_loop_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork([(0, 0), (1, 1)], [(0, 0)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork([(0, 0), (1, 1)], [(0, 5)])

    def test_negative_length_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork([(0, 0), (1, 1)], [(0, 1, -2.0)])

    def test_negative_speed_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork([(0, 0), (1, 1)], [(0, 1)], speed_mps=-1.0)

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, speed):
        # NaN passes ``speed <= 0``; either value made every edge cost
        # NaN or zero.
        with pytest.raises(RoadNetworkError, match="finite"):
            RoadNetwork([(0, 0), (1, 1)], [(0, 1)], speed_mps=speed)

    def test_parallel_edges_keep_cheapest(self):
        net = RoadNetwork([(0, 0), (100, 0)], [(0, 1, 500.0), (0, 1, 120.0)])
        assert net.num_edges == 1
        assert net.edge_length(0, 1) == 120.0

    def test_default_length_is_euclidean(self):
        net = RoadNetwork([(0, 0), (30, 40)], [(0, 1)])
        assert net.edge_length(0, 1) == pytest.approx(50.0)

    def test_explicit_length_overrides(self):
        net = RoadNetwork([(0, 0), (30, 40)], [(0, 1, 75.0)])
        assert net.edge_length(0, 1) == 75.0

    def test_bad_edge_arity_rejected(self):
        with pytest.raises(RoadNetworkError):
            RoadNetwork([(0, 0), (1, 1)], [(0, 1, 1.0, 2.0)])


class TestAccessors:
    def test_neighbors(self, tiny_net):
        # Centre vertex 4 connects to 1, 3, 5, 7: its CSR row, sorted.
        indptr, indices, _lengths = tiny_net.csr_arrays
        assert indices[indptr[4]:indptr[5]].tolist() == [1, 3, 5, 7]

    def test_in_neighbors_symmetric_grid(self, tiny_net):
        assert sorted(u for u, v, _l in tiny_net.edges() if v == 4) == [1, 3, 5, 7]

    def test_out_degree_corner(self, tiny_net):
        indptr, _indices, _lengths = tiny_net.csr_arrays
        assert indptr[1] - indptr[0] == 2

    def test_edge_length_missing_raises(self, tiny_net):
        with pytest.raises(RoadNetworkError):
            tiny_net.edge_length(0, 8)

    def test_edges_iterates_all(self, tiny_net):
        assert sum(1 for _ in tiny_net.edges()) == tiny_net.num_edges

    def test_xy_read_only(self, tiny_net):
        with pytest.raises(ValueError):
            tiny_net.xy[0, 0] = 99.0

    def test_point(self, tiny_net):
        assert tiny_net.xy[4].tolist() == [100.0, 100.0]

class TestConversions:
    def test_edge_cost_uses_speed(self):
        net = line_network(speed=10.0)
        assert net.edge_cost(0, 1) == pytest.approx(10.0)  # 100 m at 10 m/s

    def test_seconds_meters_round_trip(self, tiny_net):
        assert tiny_net.meters_to_seconds(123.0) * tiny_net.speed_mps == pytest.approx(123.0)

    def test_path_length(self, tiny_net):
        assert tiny_net.path_length_m([0, 1, 2, 5]) == pytest.approx(300.0)

    def test_path_cost(self):
        net = line_network(speed=20.0)
        assert net.path_cost_s([0, 1, 2]) == pytest.approx(10.0)

    def test_path_length_invalid_hop_raises(self, tiny_net):
        with pytest.raises(RoadNetworkError):
            tiny_net.path_length_m([0, 8])

    def test_is_path(self, tiny_net):
        assert is_path(tiny_net, [0, 1, 4, 7, 8])
        assert not is_path(tiny_net, [0, 4])

    def test_single_vertex_is_path(self, tiny_net):
        assert is_path(tiny_net, [3])
        assert tiny_net.path_length_m([3]) == 0.0


class TestCsr:
    def test_shape_and_cache(self, tiny_net):
        m1 = tiny_net.to_csr()
        assert m1.shape == (9, 9)
        assert tiny_net.to_csr() is m1

    def test_zero_length_edge_survives(self):
        net = RoadNetwork([(0, 0), (0, 0.0001)], [(0, 1, 0.0)])
        mat = net.to_csr()
        assert mat[0, 1] > 0  # nudged, not dropped


def _jittered(seed):
    """A jittered grid city re-laid in shuffled edge order, about a fifth
    of its edges at exact zero length."""
    base = grid_city(rows=6, cols=7, spacing_m=150.0, seed=seed)
    rng = np.random.default_rng(seed)
    edges = list(base.edges())
    order = rng.permutation(len(edges))
    zero = rng.random(len(edges)) < 0.2
    return RoadNetwork(base.xy, [(edges[i][0], edges[i][1], 0.0 if zero[i] else edges[i][2])
                                 for i in order])


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCsrArrays:
    """The numpy-built CSR arrays are, byte for byte, what scipy built
    (``tests/oracles.py``, "CSR adjacency")."""

    @pytest.mark.parametrize("seed", range(5))
    def test_to_csr_equals_the_coo_build(self, seed):
        net = _jittered(seed)
        got, want = net.to_csr(), reference_to_csr(net)
        for name, array in zip(("indptr", "indices", "data"), net.csr_arrays):
            _same_bytes(getattr(got, name), getattr(want, name))
            assert np.shares_memory(getattr(got, name), array)  # wrapped, not copied

    def test_edgeless_network(self):
        net = RoadNetwork([(0, 0), (50, 0), (0, 50)], [])
        got, want = net.to_csr(), reference_to_csr(net)
        for name in ("indptr", "indices", "data"):
            _same_bytes(getattr(got, name), getattr(want, name))
        sub = net.induced_subgraph(frozenset({0, 2}))
        assert sub.indptr.tolist() == [0, 0, 0] and sub.indices.size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_induced_subgraph_equals_the_scipy_fancy_index(self, seed):
        net = _jittered(seed)
        rng = np.random.default_rng(100 + seed)
        n = net.num_vertices
        for size in [0, 1, n] + rng.integers(1, n, size=40).tolist():
            allowed = frozenset(rng.choice(n, size=size, replace=False).tolist())
            sub = InducedSubgraph(net, allowed)
            nodes, indptr, indices, lengths = reference_induced_subgraph(net, allowed)
            _same_bytes(sub.nodes, nodes)
            _same_bytes(sub.indptr, indptr)
            _same_bytes(sub.indices, indices)
            _same_bytes(sub.data_s, lengths / net.speed_mps)


# ----------------------------------------------------------------------
# the numpy edge pass against the per-edge loop it replaced
# ----------------------------------------------------------------------
def _mangled(net, seed):
    """``net``'s edges shuffled, with cheaper and dearer parallel copies,
    exact-zero lengths and some lengths left to default."""
    rng = np.random.default_rng(seed)
    edges = []
    for u, v, length in net.edges():
        roll = rng.random()
        if roll < 0.1:
            edges.append((u, v, 0.0))
        elif roll < 0.2:
            edges.append((u, v))
        else:
            edges.append((u, v, length))
        if rng.random() < 0.15:
            edges.append((u, v, length * float(rng.choice([0.5, 1.0, 1.5]))))
    return [edges[i] for i in rng.permutation(len(edges))]


class TestEdgePass:
    """``RoadNetwork`` against ``tests/oracles.py::reference_edge_dict``:
    the same ``edges()`` in the same order, the same ``edge_length``, the
    CSR arrays of the dict, and the same error for the same bad input."""

    @staticmethod
    def assert_built_like_the_loop(net, xy, edges):
        want = reference_edge_dict(xy, edges)
        assert list(net.edges()) == [(u, v, length) for (u, v), length in want.items()]
        assert net.num_edges == len(want)
        for (u, v), length in want.items():
            assert net.edge_length(u, v) == length
        ordered = sorted(want.items())
        indptr = np.zeros(net.num_vertices + 1, dtype=np.int32)
        np.cumsum(np.bincount([u for (u, _v), _l in ordered], minlength=net.num_vertices),
                  out=indptr[1:])
        lengths = np.array([length for _k, length in ordered], dtype=np.float64)
        for got, expected in zip(net.csr_arrays, (
            indptr,
            np.array([v for (_u, v), _l in ordered], dtype=np.int32),
            np.where(lengths > 0, lengths, 1e-9),
        )):
            _same_bytes(got, expected.reshape(-1).astype(expected.dtype))

    @pytest.mark.parametrize("city", _Pinned.PINS)
    @pytest.mark.parametrize("mangle", [False, True])
    def test_pinned_networks(self, city, mangle):
        base = grid_city(**_Pinned.PINS[city][0])
        edges = _mangled(base, len(city)) if mangle else list(base.edges())
        net = RoadNetwork(base.xy, edges)
        self.assert_built_like_the_loop(net, base.xy, edges)
        if not mangle:
            _same_bytes(net.csr_arrays[2], base.csr_arrays[2])

    def test_array_input_is_the_tuple_input(self):
        base = grid_city(**_Pinned.PINS["SOAK10"][0])
        edges = [edge for edge in _mangled(base, 3) if len(edge) == 3]
        from_tuples = RoadNetwork(base.xy, edges)
        from_array = RoadNetwork(base.xy, np.array(edges))
        assert list(from_array.edges()) == list(from_tuples.edges())
        for got, want in zip(from_array.csr_arrays, from_tuples.csr_arrays):
            _same_bytes(got, want)
        pairs = np.array([(u, v) for u, v, _l in edges])
        self.assert_built_like_the_loop(RoadNetwork(base.xy, pairs), base.xy, pairs)

    def test_hand_made_network(self):
        xy = [(0.0, 0.0), (30.0, 40.0), (30.0, 0.0), (0.0, 40.0)]
        edges = [(0, 1), (1, 0, 50.0), (0, 1, 20.0), (0, 1, 20.0), (2, 3, 0.0),
                 (2, 3, 0.0), (3, 2), (1, 2, 7.5), (1, 2, 9.0), (0, 1, 60.0), (3, 0)]
        net = RoadNetwork(xy, edges)
        self.assert_built_like_the_loop(net, xy, edges)
        assert net.edge_length(0, 1) == 20.0 and net.edge_length(2, 3) == 0.0
        assert net.edge_length(3, 2) == 50.0 and net.num_edges == 6

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2, -1.0), (5, 0)],
        [(0, 1, 3.0), (2, 2), (0, 9)],
        [(0, 1), (0, 1, 2, 3), (1, 9)],
        [(0, 9), (0, 1, 2, 3)],
        [(0, 1), (2, 0, 1.0), (3, 3, -1.0)],
        [(9, 9, -1.0)],
        [(0, -1)],
        [(0, 1, 1.0), (1,)],
        [(1, 0, -0.5), (0, 1, 2, 3)],
        np.array([[0, 1, 2, 3]]),
        np.array([[0.0, 1.0], [1.0, 1.0]]),
    ], ids=["negative", "self-loop", "arity", "unknown-before-arity",
            "self-loop-before-negative", "unknown-before-negative", "negative-vertex",
            "short-tuple", "negative-before-arity", "array-arity", "array-self-loop"])
    def test_same_error_as_the_loop(self, edges):
        xy = [(0.0, 0.0), (30.0, 40.0), (30.0, 0.0), (0.0, 40.0)]
        with pytest.raises(RoadNetworkError) as want:
            reference_edge_dict(xy, edges)
        with pytest.raises(RoadNetworkError) as got:
            RoadNetwork(xy, edges)
        assert str(got.value) == str(want.value)
