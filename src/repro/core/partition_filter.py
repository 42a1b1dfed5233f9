"""Partition filtering (Algorithm 2 of the paper).

Route planning between two consecutive schedule events does not need
the whole road graph: only partitions that lie roughly *along the way*
can contribute to a good path.  Partition filtering works on the
landmark graph and keeps a partition ``P_i`` only when

* **travel direction rule** — the vector from the source landmark to
  ``P_i``'s landmark is aligned (cosine >= ``lambda``) with the vector
  from the source landmark to the destination landmark, and
* **travel cost rule** — routing via ``P_i``'s landmark costs at most
  ``(1 + epsilon)`` times the direct landmark-to-landmark cost.

The result depends only on the (source partition, destination
partition) pair, so it is memoised.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ..config import DEFAULT_LAMBDA
from ..network.geo import cosine_similarity
from ..network.landmarks import LandmarkGraph


class PartitionFilter:
    """Memoised implementation of Algorithm 2.

    Parameters
    ----------
    landmark_graph:
        Landmarks, pairwise landmark costs, and partition geometry.
    lam:
        Direction threshold ``lambda`` (shared with mobility
        clustering; default cos 45 deg).
    epsilon:
        Cost-slack threshold (the paper conservatively uses 1.0).
    """

    def __init__(
        self,
        landmark_graph: LandmarkGraph,
        lam: float = DEFAULT_LAMBDA,
        epsilon: float = 1.0,
    ) -> None:
        # NaN would fail every ordered comparison of the cost rule.
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError("epsilon must be finite and non-negative")
        self._lg = landmark_graph
        self._lam = float(lam)
        self._eps = float(epsilon)
        self._cache: dict[tuple[int, int], list[int]] = {}
        self._vertex_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._corridor_cache: dict[tuple[int, ...], frozenset[int]] = {}

    @property
    def landmark_graph(self) -> LandmarkGraph:
        """The landmark graph being filtered."""
        return self._lg

    def filter_nodes(self, u: int, v: int) -> list[int]:
        """Retained partitions for a leg between road vertices ``u``, ``v``."""
        return self.filter_partitions(self._lg.partition_of(u), self._lg.partition_of(v))

    def filter_partitions(self, pz: int, pz1: int) -> list[int]:
        """Retained partitions for a leg from partition ``pz`` to ``pz1``.

        The source and destination partitions are always retained, so a
        path always exists inside the filtered set whenever one exists
        at all through those partitions.
        """
        key = (pz, pz1)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        lg = self._lg
        if pz == pz1:
            result = [pz]
            self._cache[key] = result
            return result

        zx, zy = lg.landmark_xy(pz)
        z1x, z1y = lg.landmark_xy(pz1)
        vx, vy = z1x - zx, z1y - zy
        direct = lg.landmark_cost(pz, pz1)
        budget = (1.0 + self._eps) * direct

        result: list[int] = []
        for pi in range(lg.num_partitions):
            if pi == pz or pi == pz1:
                result.append(pi)
                continue
            ix, iy = lg.landmark_xy(pi)
            if cosine_similarity(ix - zx, iy - zy, vx, vy) < self._lam:
                continue
            via = lg.landmark_cost(pz, pi) + lg.landmark_cost(pi, pz1)
            if via <= budget:
                result.append(pi)
        self._cache[key] = result
        return result

    def allowed_vertices(self, pz: int, pz1: int) -> frozenset[int]:
        """Union of the member vertices of the retained partitions (memoised)."""
        key = (pz, pz1)
        cached = self._vertex_cache.get(key)
        if cached is not None:
            return cached
        allowed: set[int] = set()
        for pi in self.filter_partitions(pz, pz1):
            allowed.update(self._lg.members(pi))
        result = frozenset(allowed)
        self._vertex_cache[key] = result
        return result

    def corridor_vertices(self, corridor: Iterable[int]) -> frozenset[int]:
        """Union of the member vertices of an explicit partition corridor.

        Memoised per corridor tuple; the *same frozenset object* is
        returned for repeated corridors, so the induced-subgraph LRU in
        :mod:`repro.network.shortest_path` gets cache hits by identity
        instead of rebuilding the CSR submatrix per routed leg.
        """
        key = tuple(corridor)
        cached = self._corridor_cache.get(key)
        if cached is not None:
            return cached
        vertices: set[int] = set()
        for pi in key:
            vertices.update(self._lg.members(pi))
        result = frozenset(vertices)
        self._corridor_cache[key] = result
        return result

    def cache_size(self) -> int:
        """Number of memoised (source, destination) partition pairs."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all memoised results (after re-partitioning)."""
        self._cache.clear()
        self._vertex_cache.clear()
        self._corridor_cache.clear()
