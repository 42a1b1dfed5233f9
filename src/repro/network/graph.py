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
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

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
        kept_rows = np.repeat(np.arange(nodes.size), counts)[kept]
        self.nodes = nodes
        self.indptr = np.zeros(nodes.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(kept_rows, minlength=nodes.size), out=self.indptr[1:])
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


def _edge_columns(
    edges: np.ndarray | Iterable[tuple],
) -> tuple[np.ndarray, np.ndarray, object]:
    """``edges`` as an ``(m, 3)`` float64 table of tail, head and length,
    a mask of the rows whose length was not given, and the first edge
    that is neither ``(u, v)`` nor ``(u, v, length)`` (``None``: there
    is none).  The table stops at that edge.
    """
    rows: list[Any] | np.ndarray
    if isinstance(edges, np.ndarray):
        rows = table = edges
    else:
        rows = list(edges)
        try:
            table = np.array(rows, dtype=np.float64)
        except (TypeError, ValueError):  # mixed arities, or a malformed edge
            table = np.empty(0)
    if table.ndim == 2 and table.shape[1] == 3:
        return table.astype(np.float64), np.zeros(len(table), dtype=bool), None
    if table.ndim == 2 and table.shape[1] == 2:
        padded = np.column_stack((table, np.zeros(len(table))))
        return padded, np.ones(len(table), dtype=bool), None
    columns: list[tuple[float, float, float]] = []
    defaulted: list[bool] = []
    bad_edge = None
    for edge in rows:
        if len(edge) == 2:
            columns.append((edge[0], edge[1], 0.0))
        elif len(edge) == 3:
            columns.append((edge[0], edge[1], float(edge[2])))
        else:
            bad_edge = edge
            break
        defaulted.append(len(edge) == 2)
    table = np.array(columns, dtype=np.float64).reshape(-1, 3)
    return table, np.array(defaulted, dtype=bool), bad_edge


def _valid_edges(
    xy: np.ndarray, edges: np.ndarray | Iterable[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``(tails, heads, lengths_m)`` of ``edges``, in input order.

    Defaulted lengths are the Euclidean distance between the endpoints.
    The first invalid edge in input order raises, with the error its
    first failing check gives — the same error a one-edge-at-a-time
    pass would raise.
    """
    n = xy.shape[0]
    table, defaulted, bad_edge = _edge_columns(edges)
    tails = table[:, 0].astype(np.int64)
    heads = table[:, 1].astype(np.int64)
    lengths = table[:, 2].copy()
    unknown = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
    defaulted &= ~unknown
    if defaulted.any():
        delta = xy[tails[defaulted]] - xy[heads[defaulted]]
        lengths[defaulted] = np.hypot(delta[:, 0], delta[:, 1])
    invalid = unknown | (tails == heads) | (lengths < 0)
    if invalid.any():
        stop = int(np.argmax(invalid))
        u, v = int(tails[stop]), int(heads[stop])
        if unknown[stop]:
            raise RoadNetworkError(f"edge ({u}, {v}) references an unknown vertex")
        if u == v:
            raise RoadNetworkError(f"self loop on vertex {u} is not allowed")
        raise RoadNetworkError(f"edge ({u}, {v}) has negative length {float(lengths[stop])}")
    if bad_edge is not None:
        raise RoadNetworkError(f"edge {bad_edge!r} must be (u, v) or (u, v, length)")
    return tails, heads, lengths


class RoadNetwork:
    """Immutable directed road network with planar vertex coordinates.

    Parameters
    ----------
    xy:
        ``(n, 2)`` array of vertex coordinates in metres.
    edges:
        ``(u, v)`` or ``(u, v, length_m)`` rows: an ``(m, 2)`` or
        ``(m, 3)`` array, or an iterable of tuples (converted to one).
        When the length is omitted it defaults to the Euclidean
        distance between the endpoints.
    speed_mps:
        Constant travel speed used to convert lengths to travel times.

    The vertex set is ``range(n)``.  Parallel edges are collapsed to the
    cheapest one; self loops are rejected.
    """

    def __init__(
        self,
        xy: np.ndarray | Sequence[tuple[float, float]],
        edges: np.ndarray | Iterable[tuple],
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

        tails, heads, lengths = _valid_edges(xy, edges)
        # Collapse parallel edges, cheapest first and the earliest of
        # equal lengths: sort by (tail, head), then length, then input
        # position (lexsort is stable), and keep each key's first edge.
        # That is also the CSR layout, rows and each row's columns
        # sorted: what scipy builds from the edge list.
        key = tails * n + heads
        order = np.lexsort((lengths, key))
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        kept = order[first]
        self._num_edges = int(kept.size)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails[kept], minlength=n), out=self._indptr[1:])
        self._indices = heads[kept].astype(np.int32)
        self._raw_lengths = lengths[kept]
        # csgraph treats an explicit 0 as "no edge"; nudge zero-length
        # edges to a tiny positive weight instead.
        self._lengths = np.where(self._raw_lengths > 0, self._raw_lengths, 1e-9)
        # ``edges()`` lists each key where it first appeared in the input.
        first_seen = np.minimum.reduceat(order, np.flatnonzero(first)) if order.size else order
        self._edge_order = np.argsort(first_seen, kind="stable")
        self._length_of: dict[tuple[int, int], float] | None = None
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

    def hop_lengths(self, path: Sequence[int]) -> list[float]:
        """Length in metres of each hop of a vertex path; raises at the
        first hop that is not an edge."""
        length_of = self._length_of
        if length_of is None:
            # Built at the first read: legs are short, and a dict probe
            # per hop beats a fixed-cost array search on them
            # (docs/PERFORMANCE.md, "Hop lengths").
            tails = np.repeat(np.arange(self.num_vertices), np.diff(self._indptr))
            length_of = self._length_of = dict(
                zip(zip(tails.tolist(), self._indices.tolist()), self._raw_lengths.tolist())
            )
        try:
            return [length_of[hop] for hop in zip(path, path[1:])]
        except KeyError as missing:
            u, v = missing.args[0]
            raise RoadNetworkError(f"no edge ({u}, {v})") from None

    def hop_costs(self, path: Sequence[int]) -> list[float]:
        """Travel time (seconds) of each hop of a vertex path: each
        :meth:`edge_cost`."""
        speed = self._speed
        return [length / speed for length in self.hop_lengths(path)]

    def edge_length(self, u: int, v: int) -> float:
        """Length in metres of edge ``(u, v)``; raises if absent."""
        return self.hop_lengths((u, v))[0]

    def edge_cost(self, u: int, v: int) -> float:
        """Travel cost (seconds) of edge ``(u, v)`` at the network speed."""
        return self.edge_length(u, v) / self._speed

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate all edges as ``(u, v, length_m)``, each in the input
        position of its first appearance."""
        tails = np.repeat(np.arange(self.num_vertices), np.diff(self._indptr))
        order = self._edge_order
        return zip(
            tails[order].tolist(), self._indices[order].tolist(), self._raw_lengths[order].tolist()
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def meters_to_seconds(self, meters: float) -> float:
        """Travel time for ``meters`` at the network speed."""
        return meters / self._speed

    def path_length_m(self, path: Sequence[int]) -> float:
        """Total length in metres of a vertex path; validates every hop."""
        total = 0.0
        for length in self.hop_lengths(path):
            total += length
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
