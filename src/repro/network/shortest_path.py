"""Shortest-path engines over :class:`~repro.network.graph.RoadNetwork`.

The paper precomputes and caches shortest paths between all vertex pairs
so that a shortest-path query costs O(1) during matching (Section V-A4).
:class:`ShortestPathEngine` reproduces that: on graphs small enough it
builds the full all-pairs matrix with scipy's C Dijkstra; on larger
graphs it falls back to per-source computation with a bounded LRU memo,
which keeps memory bounded while staying fast for the skewed query
distributions a dispatcher generates; ``mode="auto"`` picks it above
:data:`FULL_APSP_LIMIT`.  The contraction-hierarchy backend
(``mode="ch"``, :mod:`repro.network.ch`) answers the same queries with
bit-identical distances from a persisted hierarchy; it runs only when
asked for, because the lazy memo measured faster end to end at every
size from 1.6k to 200k vertices (docs/PERFORMANCE.md, "Routing backends").
The ``REPRO_SP_MODE`` environment variable overrides the ``"auto"``
resolution (see :data:`SP_MODE_ENV`).

:func:`dijkstra_restricted` is the segment-level router of basic
routing (Algorithm 3): a Dijkstra over an arbitrary *allowed vertex
set* (the union of the partitions that survived partition filtering),
optionally with additive per-vertex weights.  Its default fast path
builds the induced CSR submatrix of the allowed set — with vertex
weights folded into the incoming-edge costs — and runs scipy's C
Dijkstra; induced subgraphs are memoised per corridor on the network
itself (:meth:`RoadNetwork.induced_subgraph`) so repeated legs through
the same corridor skip the rebuild.  Probabilistic routing
(Algorithm 4) keeps its vertex-weighted corridor matrices itself and
enters at :func:`subgraph_shortest_path`, the "scipy + unwind" step
both share.  The pure-Python heap implementation is retained as the
reference path (``method="scalar"``) that the kernel tests diff
against.
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Callable, Collection, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..memo import BoundedMemo, memo_stats
from .ch import ContractionHierarchy
from .graph import InducedSubgraph, RoadNetwork

if TYPE_CHECKING:
    from scipy import sparse

#: Above this vertex count the full all-pairs matrix is not materialised.
FULL_APSP_LIMIT = 6_000

#: Environment override for ``mode="auto"`` resolution: one of
#: ``full`` / ``lazy`` / ``ch`` (empty or ``auto`` keeps the default
#: rule).  Explicit non-auto ``mode=`` arguments always win.
SP_MODE_ENV = "REPRO_SP_MODE"

_SP_MODES = ("full", "lazy", "ch")


def resolve_sp_mode(mode: str, num_vertices: int) -> str:
    """Resolve an engine mode string against the env override and size rule.

    ``"auto"`` consults :data:`SP_MODE_ENV` first, then picks ``full``
    at or below :data:`FULL_APSP_LIMIT` vertices and ``lazy`` above it.
    ``ch`` is never chosen by the size rule.
    """
    if mode == "auto":
        env = os.environ.get(SP_MODE_ENV, "").strip().lower()
        if env in _SP_MODES:
            mode = env
        elif env and env != "auto":
            raise ValueError(f"invalid {SP_MODE_ENV}={env!r}; use auto/full/lazy/ch")
    if mode == "auto":
        mode = "full" if num_vertices <= FULL_APSP_LIMIT else "lazy"
    if mode not in _SP_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode

#: Per-source Dijkstra results kept by the lazy row memo.
LAZY_CACHE_SIZE = 4_096

_UNREACHABLE = np.inf


class PathNotFound(RuntimeError):
    """Raised when no path exists between the requested vertices."""


class ShortestPathEngine:
    """Cached shortest-path distances and paths on a road network.

    Parameters
    ----------
    network:
        The road network to route on.
    mode:
        ``"full"`` precomputes the all-pairs matrix up front, ``"lazy"``
        computes single-source trees on demand, ``"ch"`` builds (or
        attaches) a contraction hierarchy (:mod:`repro.network.ch`),
        ``"auto"`` (default) picks ``"full"`` at or below
        :data:`FULL_APSP_LIMIT` vertices and ``"lazy"`` above — unless
        the :data:`SP_MODE_ENV` environment variable overrides it.
    full_arrays:
        Optional precomputed ``(dist, pred)`` matrices for ``"full"``
        mode — typically memory-mapped ``.npy`` views served by the
        artifact store (:mod:`repro.artifacts`), so concurrent sweep
        workers share pages zero-copy instead of each running (and
        holding) its own all-pairs Dijkstra.  The engine reads them
        through base-class ``ndarray`` views of the same pages (see
        ``__init__``).  Ignored in other modes.
    ch_arrays:
        Optional persisted hierarchy arrays for ``"ch"`` mode (the
        artifact-store warm path; usually mmapped).  Nothing to view
        here: :class:`~repro.network.ch.ContractionHierarchy` copies
        what its hot loops read into lists at construction.  Ignored in
        other modes.
    """

    #: ``stats()`` keys that are point-in-time gauges; every other key
    #: is a monotone tally that harvesters should turn into a delta.
    STAT_GAUGES = frozenset({"spe.cache_entries"}) | ContractionHierarchy.STAT_GAUGES

    def __init__(
        self,
        network: RoadNetwork,
        mode: str = "auto",
        full_arrays: tuple[np.ndarray, np.ndarray] | None = None,
        ch_arrays: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if mode not in ("auto", "full", "lazy", "ch"):
            raise ValueError(f"unknown mode {mode!r}")
        mode = resolve_sp_mode(mode, network.num_vertices)
        if mode != "full" or full_arrays is None:
            # This engine will call scipy — the all-pairs build, source
            # trees, restricted legs — and each call site imports it
            # where it is used.  Importing it here as well charges the
            # ~0.3 s to set-up, never to the first query of a timed run;
            # a "full" engine over injected tables never calls scipy and
            # must not import it (docs/ARCHITECTURE.md, "Import rule").
            from scipy.sparse import csgraph  # noqa: F401
        self._network = network
        self._mode = mode
        self._dist: np.ndarray | None = None
        self._pred: np.ndarray | None = None
        #: Per-source ``(dist, pred)`` trees: the primary store in
        #: ``"lazy"`` mode, the row-query fallback in ``"ch"`` mode.  Its
        #: ``hits`` also tally ``"full"``-mode queries — there every query
        #: is a hit, the whole matrix being the cache.
        self._rows: BoundedMemo[int, tuple[np.ndarray, np.ndarray]] = BoundedMemo(
            LAZY_CACHE_SIZE
        )
        #: Whether this engine ran the all-pairs Dijkstra itself (False
        #: when the matrices were injected, e.g. from the artifact store).
        self.full_built = False
        #: Whether the full matrices are memory-mapped (zero-copy).
        self.full_mmapped = False
        #: The contraction hierarchy backing ``"ch"`` mode, if any.
        self._ch: ContractionHierarchy | None = None
        #: Whether this engine contracted the hierarchy itself (False
        #: when the arrays were injected from the artifact store).
        self.ch_built = False
        #: Whether the hierarchy arrays are memory-mapped (zero-copy).
        self.ch_mmapped = False
        if mode == "ch":
            if ch_arrays is not None:
                self._ch = ContractionHierarchy.from_arrays(network, ch_arrays)
                self.ch_mmapped = self._ch.is_mmapped()
            else:
                self._ch = ContractionHierarchy.build(network)
                self.ch_built = True
        if mode == "full":
            if full_arrays is not None:
                dist, pred = full_arrays
                n = network.num_vertices
                if dist.shape != (n, n) or pred.shape != (n, n):
                    raise ValueError(
                        f"full_arrays must both be ({n}, {n}); "
                        f"got {dist.shape} and {pred.shape}"
                    )
                self.full_mmapped = isinstance(dist, np.memmap)
                # Held as base-class views of the same file-backed,
                # read-only pages (zero-copy; the view keeps the mapping
                # alive): every slice of an ``np.memmap`` *instance* runs
                # the subclass's Python-level ``__getitem__`` and
                # ``__array_finalize__``, ~10x a plain ndarray slice,
                # and row/column slices are the hot-path read.
                self._dist = np.asarray(dist)
                self._pred = np.asarray(pred)
            else:
                self._build_full()
                self.full_built = True

    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The network this engine routes on."""
        return self._network

    @property
    def mode(self) -> str:
        """``"full"``, ``"lazy"`` or ``"ch"``."""
        return self._mode

    @property
    def hierarchy(self) -> ContractionHierarchy | None:
        """The contraction hierarchy (``"ch"`` mode only), else ``None``."""
        return self._ch

    def _build_full(self) -> None:
        from scipy.sparse import csgraph

        mat = self._network.to_csr()
        dist, pred = csgraph.dijkstra(mat, directed=True, return_predecessors=True)
        self._dist = dist
        self._pred = pred

    def _source_tree(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        if self._mode == "full":
            assert self._dist is not None and self._pred is not None
            self._rows.hits += 1
            return self._dist[source], self._pred[source]
        tree = self._rows.lookup(source)
        if tree is not None:
            return tree
        from scipy.sparse import csgraph

        mat = self._network.to_csr()
        dist, pred = csgraph.dijkstra(
            mat, directed=True, indices=source, return_predecessors=True
        )
        return self._rows.store(source, (dist, pred))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance_m(self, u: int, v: int) -> float:
        """Shortest-path distance from ``u`` to ``v`` in metres.

        Returns ``inf`` when ``v`` is unreachable from ``u``.
        """
        if u == v:
            return 0.0
        if self._ch is not None:
            return self._ch.distance_m(u, v)
        return float(self.dist_row(u)[v])

    def cost(self, u: int, v: int) -> float:
        """Shortest-path travel cost from ``u`` to ``v`` in seconds.

        This is the ``cost(u, v)`` of the paper under the network's
        constant speed.  Returns ``inf`` when unreachable.
        """
        return self.distance_m(u, v) / self._network.speed_mps

    def reachable(self, u: int, v: int) -> bool:
        """Whether ``v`` can be reached from ``u``."""
        return self.distance_m(u, v) != _UNREACHABLE

    def cost_many(self, u: int, vs: Sequence[int] | np.ndarray) -> np.ndarray:
        """Travel costs (seconds) from ``u`` to every vertex in ``vs``.

        One numpy slice of the cached source tree (full mode: a row of
        the all-pairs matrix) instead of ``len(vs)`` scalar queries.
        Entry-wise bit-identical to :meth:`cost`; unreachable targets
        are ``inf``.
        """
        vs = np.asarray(vs, dtype=np.int64)
        if self._ch is not None:
            return self._ch.cost_matrix_m([u], vs.tolist())[0] / self._network.speed_mps
        return self.dist_row(u)[vs] / self._network.speed_mps

    def cost_matrix(
        self, us: Sequence[int] | np.ndarray, vs: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """``(len(us), len(vs))`` travel-cost matrix in seconds.

        Full mode slices the APSP matrix in one fancy-index operation;
        lazy mode gathers one cached source tree per *unique* source.
        ``out[i, j]`` is bit-identical to ``cost(us[i], vs[j])``.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        speed = self._network.speed_mps
        if self._ch is not None:
            return self._ch.cost_matrix_m(us.tolist(), vs.tolist()) / speed
        if self._mode == "full":
            assert self._dist is not None
            self._rows.hits += us.size
            return self._dist[us[:, None], vs[None, :]] / speed
        uniq, inverse = np.unique(us, return_inverse=True)
        rows = np.empty((uniq.size, vs.size), dtype=np.float64)
        for k, u in enumerate(uniq):
            rows[k] = self.dist_row(int(u))[vs]
        return rows[inverse] / speed

    def path(self, u: int, v: int) -> list[int]:
        """Shortest path from ``u`` to ``v`` as a vertex list (inclusive).

        Raises :class:`PathNotFound` when no path exists.
        """
        if u == v:
            return [u]
        if self._ch is not None:
            found = self._ch.path(u, v)
            if found is None:
                raise PathNotFound(f"no path from {u} to {v}")
            return found
        dist, pred = self._source_tree(u)
        if not np.isfinite(dist[v]):
            raise PathNotFound(f"no path from {u} to {v}")
        out = [v]
        node = v
        while node != u:
            node = int(pred[node])
            out.append(node)
        out.reverse()
        return out

    def dist_row(self, source: int) -> np.ndarray:
        """The raw distance row (metres) of ``source`` — a cached view.

        This is the zero-copy primitive behind the small-batch fast
        paths: callers hold the row and read single entries with
        ``row.item(v)``, which matches :meth:`distance_m` bit for bit
        (``row.item(v) / speed`` equals :meth:`cost`).  Works in every
        mode; lazy and ch modes compute/cache the source tree on demand
        (full rows are the one query shape a hierarchy does not
        accelerate, so ``ch`` serves them from the same per-source LRU
        as lazy mode — values identical either way).  Treat the row as
        read-only.

        Every distance-only query reads through here, tallied as one
        cache hit per row like :meth:`_source_tree`; only :meth:`path`
        reads predecessors, so ``"full"`` mode never slices the
        predecessor matrix for a distance.
        """
        if self._mode == "full":
            assert self._dist is not None
            self._rows.hits += 1
            return self._dist[source]
        return self._source_tree(source)[0]

    def dist_col(self, target: int) -> np.ndarray | None:
        """Distance column (metres) *into* ``target``, or ``None``.

        Only the full all-pairs matrix materialises columns; lazy mode
        returns ``None`` and callers fall back to the batched
        :meth:`cost_matrix` query.  ``col.item(u) / speed`` is
        bit-identical to ``cost(u, target)``.
        """
        if self._mode != "full":
            return None
        assert self._dist is not None
        self._rows.hits += 1
        return self._dist[:, target]

    def stats(self) -> dict[str, int]:
        """Every engine counter under its fully-qualified metric name.

        The single harvesting surface for the observability layer: the
        simulator snapshots this at run start and gauges the deltas at
        run end (keys in :data:`STAT_GAUGES` are point-in-time values
        and are reported as-is).  Contains ``spe.cache_*`` always and
        ``sp.ch.*`` in ``"ch"`` mode.
        """
        out = memo_stats([("spe.cache", self._rows)])
        if self._ch is not None:
            out.update(self._ch.stats_snapshot())
        return out

    def full_matrices(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(dist, pred)`` all-pairs matrices, or ``None`` in lazy mode.

        Used by the artifact store to persist a freshly built matrix;
        treat the arrays as read-only.
        """
        if self._dist is None or self._pred is None:
            return None
        return self._dist, self._pred

    def hierarchy_arrays(self) -> dict[str, np.ndarray] | None:
        """The hierarchy's named arrays, or ``None`` outside ``"ch"`` mode.

        Used by the artifact store to persist a freshly contracted
        hierarchy; treat the arrays as read-only.
        """
        if self._ch is None:
            return None
        return self._ch.to_arrays()

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the cached structures.

        Memory-mapped full matrices count their full (virtual) size;
        see :meth:`mmap_bytes` for the share that is file-backed and
        shared between processes rather than private.
        """
        total = 0
        if self._dist is not None:
            total += self._dist.nbytes
        if self._pred is not None:
            total += self._pred.nbytes
        if self._ch is not None:
            total += self._ch.memory_bytes()
        for dist, pred in self._rows.values():
            total += dist.nbytes + pred.nbytes
        return total

    def mmap_bytes(self) -> int:
        """Bytes of the footprint that are memory-mapped (file-backed)."""
        total = 0
        if self.full_mmapped:
            assert self._dist is not None and self._pred is not None
            total += self._dist.nbytes + self._pred.nbytes
        if self.ch_mmapped:
            assert self._ch is not None
            total += self._ch.memory_bytes()
        return total


def _resolve_weight_fn(
    vertex_weight: Mapping[int, float] | Callable[[int], float] | None,
) -> Callable[[int], float] | None:
    if vertex_weight is None:
        return None
    if callable(vertex_weight):
        return vertex_weight
    mapping = vertex_weight

    def weight_of(v: int) -> float:
        return mapping.get(v, 0.0)

    return weight_of


def dijkstra_restricted(
    network: RoadNetwork,
    source: int,
    target: int,
    allowed: Collection[int] | None = None,
    vertex_weight: Mapping[int, float] | Callable[[int], float] | None = None,
    method: str = "auto",
) -> tuple[float, list[int]]:
    """Dijkstra from ``source`` to ``target`` over an allowed vertex set.

    Parameters
    ----------
    allowed:
        Vertices the path may use.  ``source`` and ``target`` are always
        admitted.  ``None`` means the whole graph.
    vertex_weight:
        Optional additive weight charged on *entering* a vertex — the
        form of Algorithm 4's step 3, where vertex ``v_c`` carries
        weight ``1 / psi_c``.  May be a mapping (missing vertices cost
        0) or a callable.  No production caller passes one any more
        (:class:`~repro.core.routing.ProbabilisticRouter` folds its
        weights into stored matrices as one array expression); with
        ``method="scalar"`` it stays as the reference
        ``tests/test_kernels.py::test_csr_matches_scalar_with_vertex_weights``
        and the routing oracle in ``tests/oracles.py`` diff against.
    method:
        ``"auto"`` (default) runs scipy's C Dijkstra on the induced CSR
        submatrix of ``allowed`` (memoised per corridor), falling
        back to the scalar path when the endpoints lie outside
        ``allowed``; ``"csr"`` forces the fast path; ``"scalar"``
        forces the pure-Python reference implementation.

    Returns
    -------
    (cost, path):
        ``cost`` is the generalised path cost in seconds (edge travel
        times plus vertex weights); ``path`` the vertex list.  When
        equal-cost paths exist the two methods may return different
        (equally cheap) vertex sequences.

    Raises
    ------
    PathNotFound
        When ``target`` is unreachable within ``allowed``.
    """
    if method not in ("auto", "csr", "scalar"):
        raise ValueError(f"unknown method {method!r}")
    if method != "scalar" and allowed is not None:
        if not isinstance(allowed, frozenset):
            allowed = frozenset(allowed)
        if source in allowed and target in allowed:
            return _dijkstra_restricted_csr(network, source, target, allowed, vertex_weight)
        if method == "csr":
            raise ValueError("csr method requires source and target inside `allowed`")
    return _dijkstra_restricted_scalar(network, source, target, allowed, vertex_weight)


def _dijkstra_restricted_csr(
    network: RoadNetwork,
    source: int,
    target: int,
    allowed: frozenset,
    vertex_weight: Mapping[int, float] | Callable[[int], float] | None,
) -> tuple[float, list[int]]:
    """CSR fast path: scipy Dijkstra on the memoised induced subgraph."""
    sub = network.induced_subgraph(allowed)
    weight_of = _resolve_weight_fn(vertex_weight)
    w_local = None
    if weight_of is not None:
        w_local = np.fromiter(
            (weight_of(int(v)) for v in sub.nodes), dtype=np.float64, count=sub.nodes.size
        )
    return subgraph_shortest_path(sub, sub.matrix(w_local), source, target)


def subgraph_shortest_path(
    sub: InducedSubgraph, matrix: sparse.csr_matrix, source: int, target: int
) -> tuple[float, list[int]]:
    """scipy Dijkstra on ``matrix`` plus the predecessor unwind.

    ``matrix`` is a travel-time matrix in ``sub``'s local numbering
    (:meth:`InducedSubgraph.matrix`, or one a caller built once and
    kept); ``source`` and ``target`` are global ids inside ``sub``.
    Returns ``(cost, path)`` as :func:`dijkstra_restricted` does and
    raises :class:`PathNotFound` when ``target`` is unreachable.
    """
    if source == target:
        return 0.0, [source]
    from scipy.sparse import csgraph

    ls = sub.local_of(source)
    lt = sub.local_of(target)
    dist, pred = csgraph.dijkstra(
        matrix, directed=True, indices=ls, return_predecessors=True
    )
    if not np.isfinite(dist[lt]):
        raise PathNotFound(
            f"no path from {source} to {target} within the allowed vertex set"
        )
    pred_of = pred.tolist()
    local_path = [lt]
    node = lt
    while node != ls:
        node = pred_of[node]
        local_path.append(node)
    local_path.reverse()
    nodes = sub.nodes
    return float(dist[lt]), [int(nodes[i]) for i in local_path]


def _dijkstra_restricted_scalar(
    network: RoadNetwork,
    source: int,
    target: int,
    allowed: Collection[int] | None,
    vertex_weight: Mapping[int, float] | Callable[[int], float] | None,
) -> tuple[float, list[int]]:
    """Reference implementation: pure-Python heap Dijkstra."""
    if allowed is not None and not isinstance(allowed, (set, frozenset)):
        allowed = set(allowed)

    weight_of = _resolve_weight_fn(vertex_weight)
    speed = network.speed_mps
    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    done: set[int] = set()

    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == target:
            path = [u]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        done.add(u)
        for v, length in network.neighbors(u):
            if v in done:
                continue
            if allowed is not None and v != target and v not in allowed:
                continue
            # The vertex weight is folded into the edge cost *before*
            # adding to ``d`` so the accumulation order matches the CSR
            # fast path bit for bit.
            edge = length / speed if weight_of is None else length / speed + weight_of(v)
            nd = d + edge
            if nd < dist.get(v, _UNREACHABLE):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))

    raise PathNotFound(
        f"no path from {source} to {target} within the allowed vertex set"
    )
