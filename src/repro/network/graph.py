"""Directed road-network graph (Definition 1 of the paper).

A :class:`RoadNetwork` is a directed graph ``G(V, E)`` whose vertices are
geolocations (road intersections) and whose edges are road segments with
a travel cost.  The paper treats travel time and travel distance as
interchangeable under a constant taxi speed; we store edge *lengths* in
metres and expose costs in *seconds* for a configurable speed, which is
what deadlines and schedules are expressed in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from ..memo import BoundedMemo

if TYPE_CHECKING:
    from scipy import sparse

#: Constant taxi travel speed assumed throughout the paper's evaluation
#: (Section V-A4): 15 km/h, expressed in metres per second.
DEFAULT_SPEED_MPS = 15_000.0 / 3600.0

#: Induced corridor subgraphs memoised per network.
SUBGRAPH_CACHE_SIZE = 256


class InducedSubgraph:
    """One memoised corridor: the induced CSR submatrix of an allowed set.

    The rows of ``nodes`` (sorted) are gathered from the network's CSR
    arrays in numpy, keeping the columns that lie in ``nodes``: the same
    arrays, byte for byte, as scipy's ``to_csr()[nodes][:, nodes]``.
    """

    __slots__ = ("nodes", "indptr", "indices", "data_s")

    def __init__(self, network: RoadNetwork, allowed: frozenset[int]) -> None:
        nodes = np.fromiter(allowed, dtype=np.int64, count=len(allowed))  # repro-lint: disable=REP001 reason=order canonicalised by the sort on the next line
        nodes.sort()
        indptr, indices, lengths = network.csr_arrays
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        # Positions of every out-edge of the kept rows, row by row.
        offsets = np.cumsum(counts) - counts
        edges = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
        heads = indices[edges]
        local = np.searchsorted(nodes, heads)
        kept = nodes[np.minimum(local, nodes.size - 1)] == heads
        row_of = np.repeat(np.arange(nodes.size), counts)[kept]
        self.nodes = nodes
        self.indptr = np.zeros(nodes.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(row_of, minlength=nodes.size), out=self.indptr[1:])
        self.indices = local[kept].astype(np.int32)
        # Edge lengths become travel times once, at build.
        self.data_s = lengths[edges[kept]] / network.speed_mps

    def local_of(self, v: int) -> int:
        """Local index of global vertex ``v``, or -1 when absent."""
        i = int(np.searchsorted(self.nodes, v))
        if i < self.nodes.size and self.nodes[i] == v:
            return i
        return -1

    def memory_bytes(self) -> int:
        """Bytes held by the four arrays."""
        return (
            self.nodes.nbytes + self.indptr.nbytes
            + self.indices.nbytes + self.data_s.nbytes
        )


class RoadNetworkError(ValueError):
    """Raised when a road network is constructed or queried incorrectly."""


class RoadNetwork:
    """Immutable directed road network with planar vertex coordinates.

    Parameters
    ----------
    xy:
        ``(n, 2)`` array of vertex coordinates in metres.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, length_m)`` tuples.  When the
        length is omitted it defaults to the Euclidean distance between
        the endpoints.
    speed_mps:
        Constant travel speed used to convert lengths to travel times.

    The vertex set is ``range(n)``.  Parallel edges are collapsed to the
    cheapest one; self loops are rejected.
    """

    def __init__(
        self,
        xy: np.ndarray | Sequence[tuple[float, float]],
        edges: Iterable[tuple],
        speed_mps: float = DEFAULT_SPEED_MPS,
    ) -> None:
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise RoadNetworkError("xy must be an (n, 2) array of coordinates")
        if xy.shape[0] == 0:
            raise RoadNetworkError("a road network needs at least one vertex")
        if not math.isfinite(speed_mps) or speed_mps <= 0:
            raise RoadNetworkError("speed must be positive and finite")
        self._xy = xy
        self._speed = float(speed_mps)
        n = xy.shape[0]

        length_of: dict[tuple[int, int], float] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                length = None
            elif len(edge) == 3:
                u, v, length = edge
                length = float(length)
            else:
                raise RoadNetworkError(f"edge {edge!r} must be (u, v) or (u, v, length)")
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise RoadNetworkError(f"edge ({u}, {v}) references an unknown vertex")
            if length is None:
                length = float(np.hypot(*(xy[u] - xy[v])))
            if u == v:
                raise RoadNetworkError(f"self loop on vertex {u} is not allowed")
            if length < 0:
                raise RoadNetworkError(f"edge ({u}, {v}) has negative length {length}")
            key = (u, v)
            if key not in length_of or length < length_of[key]:
                length_of[key] = length

        ordered = sorted(length_of.items())
        self._num_edges = len(length_of)
        self._length_of = length_of
        # CSR adjacency, rows and the columns of each row sorted: what
        # scipy builds from the edge list, with its index dtype.
        tails = np.fromiter((u for (u, _v), _l in ordered), dtype=np.int64, count=len(ordered))
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails, minlength=n), out=self._indptr[1:])
        self._indices = np.fromiter(
            (v for (_u, v), _l in ordered), dtype=np.int32, count=len(ordered)
        )
        lengths = np.fromiter((length for _k, length in ordered), dtype=np.float64,
                              count=len(ordered))
        # csgraph treats an explicit 0 as "no edge"; nudge zero-length
        # edges to a tiny positive weight instead.
        self._lengths = np.where(lengths > 0, lengths, 1e-9)
        for array in (self._indptr, self._indices, self._lengths):
            array.flags.writeable = False  # shared with to_csr() and its callers
        self._csr: sparse.csr_matrix | None = None
        #: Induced subgraph per allowed vertex set (a pure function of
        #: the set on this immutable network); dies with the network.
        self.corridors: BoundedMemo[frozenset[int], InducedSubgraph] = BoundedMemo(
            SUBGRAPH_CACHE_SIZE
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``N = |V|``."""
        return self._xy.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return self._num_edges

    @property
    def speed_mps(self) -> float:
        """Constant travel speed in metres per second."""
        return self._speed

    @property
    def xy(self) -> np.ndarray:
        """Read-only view of the ``(n, 2)`` vertex coordinate array."""
        view = self._xy.view()
        view.flags.writeable = False
        return view

    def edge_length(self, u: int, v: int) -> float:
        """Length in metres of edge ``(u, v)``; raises if absent."""
        try:
            return self._length_of[(u, v)]
        except KeyError:
            raise RoadNetworkError(f"no edge ({u}, {v})") from None

    def edge_cost(self, u: int, v: int) -> float:
        """Travel cost (seconds) of edge ``(u, v)`` at the network speed."""
        return self.edge_length(u, v) / self._speed

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate all edges as ``(u, v, length_m)``."""
        for (u, v), length in self._length_of.items():
            yield u, v, length

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def meters_to_seconds(self, meters: float) -> float:
        """Travel time for ``meters`` at the network speed."""
        return meters / self._speed

    def path_length_m(self, path: Sequence[int]) -> float:
        """Total length in metres of a vertex path; validates every hop."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += self.edge_length(u, v)
        return total

    def path_cost_s(self, path: Sequence[int]) -> float:
        """Total travel time in seconds of a vertex path."""
        return self.path_length_m(path) / self._speed

    # ------------------------------------------------------------------
    # CSR adjacency and scipy interop
    # ------------------------------------------------------------------
    @property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, lengths_m)`` of the sorted CSR adjacency.

        Zero-length edges carry ``1e-9`` m (see ``__init__``).  Shared,
        not copied, and read-only.
        """
        return self._indptr, self._indices, self._lengths

    def to_csr(self) -> sparse.csr_matrix:
        """The CSR arrays as a scipy matrix (no copy), cached."""
        if self._csr is None:
            from scipy import sparse

            n = self.num_vertices
            self._csr = sparse.csr_matrix(
                (self._lengths, self._indices, self._indptr), shape=(n, n)
            )
        return self._csr

    def induced_subgraph(self, allowed: frozenset[int]) -> InducedSubgraph:
        """The memoised induced CSR subgraph of ``allowed``."""
        sub = self.corridors.lookup(allowed)
        if sub is None:
            sub = self.corridors.store(allowed, InducedSubgraph(self, allowed))
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, speed_mps={self._speed:.3f})"
        )
