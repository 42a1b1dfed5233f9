"""Shortest-path engines over :class:`~repro.network.graph.RoadNetwork`.

The paper precomputes and caches shortest paths between all vertex pairs
so that a shortest-path query costs O(1) during matching (Section V-A4).
:class:`ShortestPathEngine` reproduces that: on graphs small enough it
builds the full all-pairs matrix with scipy's C Dijkstra; on larger
graphs it falls back to per-source computation with a bounded LRU memo,
which keeps memory bounded while staying fast for the skewed query
distributions a dispatcher generates; ``mode="auto"`` picks it above
:data:`FULL_APSP_LIMIT`.  A contraction hierarchy was tried and removed:
the lazy memo measured faster end to end at every size from 1.6k to
200k vertices (docs/PERFORMANCE.md, "Routing backends").

:func:`dijkstra_restricted` is the segment-level router of basic
routing (Algorithm 3): a Dijkstra over an *allowed vertex set* (the
union of the partitions that survived partition filtering).  It takes
the induced CSR subgraph of the allowed set — memoised per set on the
network itself (:meth:`RoadNetwork.induced_subgraph`), so repeated legs
through the same corridor skip the rebuild — and runs scipy's C
Dijkstra on it.  It serves the ``lazy`` engine only, which has
imported scipy already; on its corridors (hundreds of vertices)
scipy is the faster search.  Probabilistic routing (Algorithm 4)
searches its own, smaller corridors, vertex weights folded in, with an
in-tree heap Dijkstra (:class:`repro.core.routing.CorridorGraph`), so
it runs without scipy on a ``full`` engine.  The adjacency-list heap
Dijkstra the kernel tests diff both against, and the scipy corridor
search the in-tree one replaced, live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..memo import BoundedMemo, memo_stats
from .graph import RoadNetwork

#: Above this vertex count the full all-pairs matrix is not materialised.
FULL_APSP_LIMIT = 6_000

_SP_MODES = ("full", "lazy")


def resolve_sp_mode(mode: str, num_vertices: int) -> str:
    """Resolve an engine mode string by the size rule.

    ``"auto"`` picks ``full`` at or below :data:`FULL_APSP_LIMIT`
    vertices and ``lazy`` above it.
    """
    if mode == "auto":
        mode = "full" if num_vertices <= FULL_APSP_LIMIT else "lazy"
    if mode not in _SP_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode

#: Per-source Dijkstra results kept by the lazy row memo.
LAZY_CACHE_SIZE = 4_096


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
        computes single-source trees on demand, ``"auto"`` (default)
        picks ``"full"`` at or below :data:`FULL_APSP_LIMIT`
        vertices and ``"lazy"`` above.
    full_arrays:
        Optional precomputed ``(dist, pred)`` matrices for ``"full"``
        mode — typically memory-mapped ``.npy`` views served by the
        artifact store (:mod:`repro.artifacts`), so concurrent sweep
        workers share pages zero-copy instead of each running (and
        holding) its own all-pairs Dijkstra.  The engine reads them
        through base-class ``ndarray`` views of the same pages (see
        ``__init__``).  Ignored in other modes.
    """

    #: ``stats()`` keys that are point-in-time gauges; every other key
    #: is a monotone tally that harvesters should turn into a delta.
    STAT_GAUGES = frozenset({"spe.cache_entries"})

    def __init__(
        self,
        network: RoadNetwork,
        mode: str = "auto",
        full_arrays: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
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
        #: Per-source ``(dist, pred)`` trees, the store of ``"lazy"``
        #: mode.  Its ``hits`` also tally ``"full"``-mode queries — there every query
        #: is a hit, the whole matrix being the cache.
        self._rows: BoundedMemo[int, tuple[np.ndarray, np.ndarray]] = BoundedMemo(
            LAZY_CACHE_SIZE
        )
        #: Whether the full matrices are memory-mapped (zero-copy).
        self.full_mmapped = False
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

    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The network this engine routes on."""
        return self._network

    @property
    def mode(self) -> str:
        """``"full"`` or ``"lazy"``."""
        return self._mode

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
        return float(self.dist_row(u)[v])

    def cost(self, u: int, v: int) -> float:
        """Shortest-path travel cost from ``u`` to ``v`` in seconds.

        This is the ``cost(u, v)`` of the paper under the network's
        constant speed.  Returns ``inf`` when unreachable.
        """
        return self.distance_m(u, v) / self._network.speed_mps

    def cost_many(self, u: int, vs: Sequence[int] | np.ndarray) -> np.ndarray:
        """Travel costs (seconds) from ``u`` to every vertex in ``vs``.

        One numpy slice of the cached source tree (full mode: a row of
        the all-pairs matrix) instead of ``len(vs)`` scalar queries.
        Entry-wise bit-identical to :meth:`cost`; unreachable targets
        are ``inf``.
        """
        vs = np.asarray(vs, dtype=np.int64)
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
        if self._mode == "full":
            assert self._dist is not None
            self._rows.hits += us.size
            return self._dist[us[:, None], vs[None, :]] / speed
        uniq, inverse = np.unique(us, return_inverse=True)
        rows = np.empty((uniq.size, vs.size), dtype=np.float64)
        for k, u in enumerate(uniq):
            rows[k] = self.dist_row(int(u))[vs]
        return rows[inverse] / speed

    def cost_pairs(
        self, us: Sequence[int] | np.ndarray, vs: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Travel costs (seconds) ``out[k] = cost(us[k], vs[k])``.

        The elementwise leg gather of the grouped insertion kernel: one
        fancy index into the APSP matrix in full mode; elsewhere one
        :meth:`cost_matrix` over the distinct endpoints, read back per
        pair.  Entry-wise bit-identical to :meth:`cost`.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if self._mode == "full":
            assert self._dist is not None
            self._rows.hits += us.size
            return self._dist[us, vs] / self._network.speed_mps
        sources, source_of = np.unique(us, return_inverse=True)
        targets, target_of = np.unique(vs, return_inverse=True)
        return self.cost_matrix(sources, targets)[source_of, target_of]

    def path(self, u: int, v: int) -> list[int]:
        """Shortest path from ``u`` to ``v`` as a vertex list (inclusive).

        Raises :class:`PathNotFound` when no path exists.
        """
        if u == v:
            return [u]
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
        mode; lazy mode computes and caches the source tree on demand.
        Treat the row as read-only.

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
        and are reported as-is): the ``spe.cache_*`` tallies.
        """
        return memo_stats([("spe.cache", self._rows)])

    def full_matrices(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(dist, pred)`` all-pairs matrices, or ``None`` in lazy mode.

        Used by the artifact store to persist a freshly built matrix and
        by the landmark medoid; treat the arrays as read-only.
        """
        if self._dist is None or self._pred is None:
            return None
        return self._dist, self._pred

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
        for dist, pred in self._rows.values():
            total += dist.nbytes + pred.nbytes
        return total

    def mmap_bytes(self) -> int:
        """Bytes of the footprint that are memory-mapped (file-backed)."""
        if not self.full_mmapped:
            return 0
        assert self._dist is not None and self._pred is not None
        return self._dist.nbytes + self._pred.nbytes


def dijkstra_restricted(
    network: RoadNetwork,
    source: int,
    target: int,
    allowed: frozenset[int],
) -> tuple[float, list[int]]:
    """Dijkstra from ``source`` to ``target`` over an allowed vertex set.

    Runs scipy's C Dijkstra on the induced CSR subgraph of ``allowed``
    (memoised per set on the network) and unwinds its predecessors.
    ``source`` and ``target`` must lie inside ``allowed`` — partition
    filtering always retains the endpoints' own partitions — else
    ``ValueError``, also when they are equal.  Returns ``(cost, path)``
    with ``cost`` in seconds; raises :class:`PathNotFound` when
    ``target`` is unreachable within ``allowed``.
    """
    sub = network.induced_subgraph(allowed)
    ls = sub.local_of(source)
    lt = sub.local_of(target)
    if ls < 0 or lt < 0:
        raise ValueError(f"{source} -> {target}: both endpoints must lie inside the subgraph")
    if ls == lt:
        return 0.0, [source]
    from scipy import sparse
    from scipy.sparse import csgraph

    n = sub.nodes.size
    matrix = sparse.csr_matrix((sub.data_s, sub.indices, sub.indptr), shape=(n, n))
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
    return float(dist[lt]), sub.nodes[local_path].tolist()
