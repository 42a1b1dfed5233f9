"""Landmarks and the landmark graph (Definitions 7 and 8 of the paper).

Each map partition is summarised by a *landmark*: the member vertex with
the minimum total shortest-path distance to all other members (a graph
medoid).  The *landmark graph* ``G_l`` connects landmarks of adjacent
partitions and carries pairwise landmark travel costs; partition
filtering (Algorithm 2) and probabilistic routing (Algorithm 4) both
operate on it instead of the full road graph.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..memo import BoundedMemo
from .graph import RoadNetwork
from .shortest_path import ShortestPathEngine

#: Query centres whose centroid-distance lists are kept per landmark graph.
DISC_CACHE_SIZE = 131_072


class LandmarkGraph:
    """Landmarks, their pairwise costs, and partition adjacency.

    Parameters
    ----------
    network:
        The underlying road network.
    partitions:
        A list of vertex-id lists; every vertex of the network must
        appear in exactly one partition.
    engine:
        Shortest-path engine on ``network`` used to pick medoids and to
        fill the landmark-to-landmark cost matrix.
    """

    def __init__(
        self,
        network: RoadNetwork,
        partitions: Sequence[Sequence[int]],
        engine: ShortestPathEngine,
    ) -> None:
        if engine.network is not network:
            raise ValueError("engine must be built on the same network")
        n = network.num_vertices
        seen = np.zeros(n, dtype=bool)
        for part in partitions:
            for v in part:
                if seen[v]:
                    raise ValueError(f"vertex {v} appears in multiple partitions")
                seen[v] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise ValueError(f"vertex {missing} is not covered by any partition")

        self._network = network
        self._engine = engine
        self._partitions = [list(part) for part in partitions]
        self._partition_of = np.empty(n, dtype=np.int64)
        for z, part in enumerate(self._partitions):
            for v in part:
                self._partition_of[v] = z

        self._landmarks = [self._medoid(part) for part in self._partitions]
        self._centroids = np.array(
            [network.xy[part].mean(axis=0) for part in self._partitions]
        )
        self._radii = np.array(
            [
                float(np.max(np.hypot(*(network.xy[part] - c).T)))
                for part, c in zip(self._partitions, self._centroids)
            ]
        )
        self._adjacency = self._build_adjacency()
        self._landmark_cost = self._build_landmark_costs()
        self._radii_list: list[float] = self._radii.tolist()
        # (x, y) -> centroid distances as a plain list; the disc test
        # is then a tiny scalar sweep instead of a fixed-cost numpy
        # kernel (kappa is small and query centres are vertex
        # coordinates, so the hit rate is high).
        self.discs: BoundedMemo[tuple[float, float], list[float]] = BoundedMemo(
            DISC_CACHE_SIZE
        )

    # ------------------------------------------------------------------
    # artifact-store serialisation
    # ------------------------------------------------------------------
    def to_tables(self) -> dict[str, np.ndarray]:
        """The landmark tables as named arrays for the artifact store.

        Adjacency rows are flattened CSR-style (``adj_indptr`` +
        ``adj_indices``, neighbours sorted per row) so the round trip is
        deterministic.
        """
        indptr = np.zeros(len(self._partitions) + 1, dtype=np.int64)
        rows: list[int] = []
        for z, neigh in enumerate(self._adjacency):
            ordered = sorted(neigh)
            rows.extend(ordered)
            indptr[z + 1] = indptr[z] + len(ordered)
        return {
            "landmarks": np.asarray(self._landmarks, dtype=np.int64),
            "centroids": self._centroids,
            "radii": self._radii,
            "partition_of": self._partition_of,
            "landmark_cost": self._landmark_cost,
            "adj_indptr": indptr,
            "adj_indices": np.asarray(rows, dtype=np.int64),
        }

    @classmethod
    def from_tables(
        cls,
        network: RoadNetwork,
        partitions: Sequence[Sequence[int]],
        tables: dict[str, np.ndarray],
    ) -> "LandmarkGraph":
        """Rebuild a landmark graph from stored tables without an engine.

        The tables must have been produced by :meth:`to_tables` on the
        same network/partitioning; behaviour is bit-identical to a fresh
        build because every derived structure is restored verbatim.
        """
        self = cls.__new__(cls)
        self._network = network
        self._engine = None  # only needed at build time
        self._partitions = [list(part) for part in partitions]
        self._partition_of = np.asarray(tables["partition_of"], dtype=np.int64).copy()
        self._landmarks = [int(v) for v in np.asarray(tables["landmarks"])]
        self._centroids = np.asarray(tables["centroids"], dtype=np.float64).copy()
        self._radii = np.asarray(tables["radii"], dtype=np.float64).copy()
        indptr = np.asarray(tables["adj_indptr"], dtype=np.int64)
        indices = np.asarray(tables["adj_indices"], dtype=np.int64)
        self._adjacency = [
            tuple(int(v) for v in indices[indptr[z]:indptr[z + 1]])
            for z in range(len(self._partitions))
        ]
        self._landmark_cost = np.asarray(tables["landmark_cost"], dtype=np.float64).copy()
        self._radii_list = self._radii.tolist()
        self.discs = BoundedMemo(DISC_CACHE_SIZE)
        return self

    # ------------------------------------------------------------------
    def _medoid(self, part: Sequence[int]) -> int:
        """Member vertex minimising total distance to other members."""
        if len(part) == 1:
            return int(part[0])
        matrices = self._engine.full_matrices()
        if matrices is not None:
            idx = np.asarray(part)
            # Full matrix available: slice and sum (inf-safe).
            sub = matrices[0][np.ix_(idx, idx)]
            sub = np.where(np.isfinite(sub), sub, np.nanmax(sub[np.isfinite(sub)], initial=0.0) * 2 + 1)
            return int(idx[np.argmin(sub.sum(axis=1))])
        # Lazy: fall back to the Euclidean medoid, a standard
        # approximation that avoids |P| single-source searches.  The two
        # rules can pick different landmarks, so this is a backend
        # inequality of its own (hence ``engine_mode`` in the landmarks key).
        pts = self._network.xy[list(part)]
        c = pts.mean(axis=0)
        return int(part[int(np.argmin(np.hypot(*(pts - c).T)))])

    def _build_adjacency(self) -> list[tuple[int, ...]]:
        adjacency: list[set[int]] = [set() for _ in self._partitions]
        part_of = self._partition_of
        for u, v, _length in self._network.edges():
            pu, pv = int(part_of[u]), int(part_of[v])
            if pu != pv:
                adjacency[pu].add(pv)
                adjacency[pv].add(pu)
        # Sorted tuples, not sets: corridor enumeration in probabilistic
        # routing iterates these rows under a path budget, so their order
        # is decision-relevant.  A sorted tuple makes the order explicit
        # and identical to the CSR layout :meth:`from_tables` restores,
        # so cold and store-warmed runs take identical corridors.
        return [tuple(sorted(neigh)) for neigh in adjacency]

    def _build_landmark_costs(self) -> np.ndarray:
        # One batched many-to-many query instead of kappa single-source
        # trees: full/lazy modes slice or gather exactly the same rows
        # (values bit-identical to the old per-landmark loop).
        return np.asarray(
            self._engine.cost_matrix(self._landmarks, self._landmarks),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of partitions ``kappa``."""
        return len(self._partitions)

    @property
    def partitions(self) -> list[list[int]]:
        """Vertex lists per partition (copies are not made; do not mutate)."""
        return self._partitions

    def landmark(self, z: int) -> int:
        """Landmark vertex of partition ``z``."""
        return self._landmarks[z]

    def landmark_xy(self, z: int) -> tuple[float, float]:
        """Planar coordinates of partition ``z``'s landmark vertex."""
        x, y = self._network.xy[self._landmarks[z]]
        return float(x), float(y)

    def partition_of(self, v: int) -> int:
        """Partition id containing vertex ``v``."""
        return int(self._partition_of[v])

    def partition_of_many(self, vertices: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`partition_of`."""
        return self._partition_of[np.asarray(vertices, dtype=np.int64)]

    def members(self, z: int) -> list[int]:
        """Vertices of partition ``z``."""
        return self._partitions[z]

    def radius(self, z: int) -> float:
        """Max member distance from the centroid of partition ``z``."""
        return float(self._radii[z])

    def neighbors(self, z: int) -> tuple[int, ...]:
        """Partitions adjacent to ``z`` (sharing at least one edge), sorted."""
        return self._adjacency[z]

    def landmark_cost(self, a: int, b: int) -> float:
        """Travel cost (seconds) between the landmarks of ``a`` and ``b``."""
        return float(self._landmark_cost[a, b])

    def landmark_cost_row(self, a: int) -> np.ndarray:
        """Read-only view of :meth:`landmark_cost` from ``a`` to every partition."""
        row = self._landmark_cost[a]
        row.flags.writeable = False
        return row

    def _centroid_distances(self, x: float, y: float) -> list[float]:
        """Distances from ``(x, y)`` to every partition centroid, memoised.

        Computed once per query centre with ``np.hypot`` and replayed
        from :attr:`discs`, so cached and uncached answers are
        bit-identical.
        """
        key = (x, y)
        d = self.discs.lookup(key)
        if d is None:
            d = self.discs.store(
                key, np.hypot(self._centroids[:, 0] - x, self._centroids[:, 1] - y).tolist()
            )
        return d

    def partitions_intersecting_disc(self, x: float, y: float, radius_m: float) -> list[int]:
        """Partitions whose bounding disc intersects the query disc.

        Used for candidate taxi searching: the searching area centred at
        a request origin with radius ``gamma`` is matched against each
        partition's (centroid, radius) bounding disc.  The threshold
        test is the same IEEE add/compare the array form
        (:meth:`disc_partition_mask`) performs.
        """
        d = self._centroid_distances(x, y)
        radii = self._radii_list
        return [z for z in range(len(d)) if d[z] <= radii[z] + radius_m]

    def disc_partition_mask(
        self, centres: Sequence[Sequence[float]], radii_m: Sequence[float]
    ) -> np.ndarray:
        """:meth:`partitions_intersecting_disc` for many discs at once.

        ``out[i, z]`` is True exactly when ``z`` is in
        ``partitions_intersecting_disc(*centres[i], radii_m[i])``: the
        same memoised distances (one counted lookup per centre), the
        same add, the same compare.
        """
        d = np.array(
            [self._centroid_distances(x, y) for x, y in centres], dtype=np.float64
        ).reshape(len(centres), self.num_partitions)
        return d <= self._radii + np.asarray(radii_m, dtype=np.float64)[:, None]

    def memory_bytes(self) -> int:
        """Approximate footprint of the landmark structures."""
        total = self._landmark_cost.nbytes + self._centroids.nbytes
        total += self._radii.nbytes + self._partition_of.nbytes
        total += sum(64 + 8 * len(p) for p in self._partitions)
        total += sum(64 + 8 * len(a) for a in self._adjacency)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LandmarkGraph(num_partitions={self.num_partitions})"
