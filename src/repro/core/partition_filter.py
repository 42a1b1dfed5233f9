"""Partition filtering (Algorithm 2 of the paper).

Route planning between two consecutive schedule events does not need
the whole road graph: only partitions that lie roughly *along the way*
can contribute to a good path.  Partition filtering works on the
landmark graph and keeps a partition ``P_i`` only when

* **travel direction rule** — the vector from the source landmark to
  ``P_i``'s landmark is aligned (cosine >= ``lambda``) with the vector
  from the source landmark to the destination landmark, and
* **travel cost rule** — routing via ``P_i``'s landmark costs at most
  ``(1 + EPSILON)`` times the direct landmark-to-landmark cost.

The result depends only on the (source partition, destination
partition) pair, so it is memoised; a miss fills the source's whole
row, every destination at once.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..config import DEFAULT_LAMBDA
from ..network.geo import cosine_table
from ..network.landmarks import LandmarkGraph

#: Cost-slack threshold ``epsilon`` of the travel cost rule: a partition
#: is on the way when routing via its landmark costs at most
#: ``(1 + EPSILON)`` times the direct landmark cost (the paper
#: conservatively uses 1.0).
EPSILON = 1.0


def filter_row(
    landmark_xy: np.ndarray, landmark_cost: np.ndarray, pz: int, lam: float
) -> list[list[int]]:
    """Algorithm 2 from source partition ``pz`` to every destination:
    entry ``pz1`` lists the retained partitions, ascending.

    ``landmark_xy`` holds the ``(kappa, 2)`` landmark coordinates and
    ``landmark_cost`` the ``(kappa, kappa)`` landmark travel costs.
    Both rules are evaluated for every (partition, destination) pair as
    one array expression whose verdicts are the scalar ones, bit for bit
    (:func:`~repro.network.geo.cosine_table`).
    """
    offsets = landmark_xy - landmark_xy[pz]
    # [pi, pz1]: the direction rule and the cost rule of keeping P_i.
    keep = cosine_table(offsets, offsets) >= lam
    keep &= landmark_cost[pz][:, None] + landmark_cost <= (1.0 + EPSILON) * landmark_cost[pz]
    keep[pz] = True
    np.fill_diagonal(keep, True)
    rows = [np.flatnonzero(column).tolist() for column in keep.T]
    rows[pz] = [pz]
    return rows


class PartitionFilter:
    """Memoised implementation of Algorithm 2.

    Parameters
    ----------
    landmark_graph:
        Landmarks, pairwise landmark costs, and partition geometry.
    lam:
        Direction threshold ``lambda`` (shared with mobility
        clustering; default cos 45 deg).
    """

    def __init__(
        self,
        landmark_graph: LandmarkGraph,
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        self._lg = landmark_graph
        self._lam = float(lam)
        self._cache: dict[tuple[int, int], list[int]] = {}
        self._vertex_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._corridor_cache: dict[tuple[int, ...], frozenset[int]] = {}
        parts = range(landmark_graph.num_partitions)
        self._landmark_xy = np.array([landmark_graph.landmark_xy(z) for z in parts])
        self._landmark_cost = np.array([landmark_graph.landmark_cost_row(z) for z in parts])

    @property
    def landmark_graph(self) -> LandmarkGraph:
        """The landmark graph being filtered."""
        return self._lg

    @property
    def landmark_xy(self) -> np.ndarray:
        """The ``(kappa, 2)`` landmark coordinates."""
        return self._landmark_xy

    def filter_partitions(self, pz: int, pz1: int) -> list[int]:
        """Retained partitions for a leg from partition ``pz`` to ``pz1``.

        The source and destination partitions are always retained, so a
        path always exists inside the filtered set whenever one exists
        at all through those partitions.
        """
        key = (pz, pz1)
        cached = self._cache.get(key)
        if cached is None:
            for dest, retained in enumerate(
                filter_row(self._landmark_xy, self._landmark_cost, pz, self._lam)
            ):
                self._cache[(pz, dest)] = retained
            cached = self._cache[key]
        return cached

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
        returned for repeated corridors, so the induced-subgraph memo it
        keys, ``RoadNetwork.corridors``, hits by identity instead of
        rebuilding the CSR submatrix per routed leg.
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
