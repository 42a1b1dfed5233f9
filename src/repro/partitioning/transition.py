"""Transition-probability model mined from historical taxi trips.

Step 1 of the bipartite map partitioning (Section IV-B1) attaches to
every road vertex ``v_i`` a *transition probability vector* ``B_i`` of
size ``kappa``: the empirical probability that a ride hailed at ``v_i``
ends in each of the ``kappa`` spatial clusters.  The same statistics are
reused by probabilistic routing (Algorithm 4) to score partitions and
vertices by their chance of yielding a *suitable* offline request.
"""

from __future__ import annotations

import numpy as np


class TransitionModel:
    """Per-vertex transition probabilities plus pickup-demand weights.

    Parameters
    ----------
    matrix:
        ``(n, kappa)`` row-stochastic matrix; row ``i`` is ``B_i``.
    pickup_counts:
        ``(n,)`` number of historical pickups observed at each vertex,
        used to weight "probability of meeting a request" estimates by
        how much demand a vertex actually generates.
    """

    def __init__(self, matrix: np.ndarray, pickup_counts: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        pickup_counts = np.asarray(pickup_counts, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if pickup_counts.shape != (matrix.shape[0],):
            raise ValueError("pickup_counts length must match matrix rows")
        row_sums = matrix.sum(axis=1)
        if not np.allclose(row_sums[row_sums > 0], 1.0, atol=1e-6):
            raise ValueError("matrix rows must sum to 1 (or be all-zero)")
        self._matrix = matrix
        self._pickups = pickup_counts
        total = pickup_counts.sum()
        self._pickup_freq = pickup_counts / total if total > 0 else np.zeros_like(pickup_counts)
        self._peak = float(pickup_counts.max()) if pickup_counts.size else 0.0

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        trips: np.ndarray,
        dest_cluster_of_vertex: np.ndarray,
        num_clusters: int,
    ) -> "TransitionModel":
        """Estimate the model from historical ``(origin, destination)`` pairs.

        Parameters
        ----------
        trips:
            ``(m, 2)`` integer array of (origin vertex, destination
            vertex) per historical trip.
        dest_cluster_of_vertex:
            ``(n,)`` label array mapping each vertex to its spatial
            cluster; destinations are bucketed through it.
        num_clusters:
            The ``kappa`` of the label space.

        Vertices with no observed pickups fall back to the global
        destination marginal, so every row is a proper distribution.
        """
        dest_cluster_of_vertex = np.asarray(dest_cluster_of_vertex, dtype=np.int64)
        n = dest_cluster_of_vertex.shape[0]
        trips = np.asarray(trips, dtype=np.int64)
        if trips.size and (trips.ndim != 2 or trips.shape[1] != 2):
            raise ValueError("trips must be an (m, 2) array")

        counts = np.zeros((n, num_clusters), dtype=np.float64)
        pickups = np.zeros(n, dtype=np.float64)
        if trips.size:
            origins = trips[:, 0]
            dest_clusters = dest_cluster_of_vertex[trips[:, 1]]
            np.add.at(counts, (origins, dest_clusters), 1.0)
            np.add.at(pickups, origins, 1.0)

        row_sums = counts.sum(axis=1, keepdims=True)
        global_marginal = counts.sum(axis=0)
        total = global_marginal.sum()
        if total > 0:
            global_marginal = global_marginal / total
        else:
            global_marginal = np.full(num_clusters, 1.0 / num_clusters)

        matrix = np.divide(counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0)
        empty = (row_sums[:, 0] == 0)
        matrix[empty] = global_marginal
        return cls(matrix, pickups)

    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the ``(n, kappa)`` probability matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def pickup_counts(self) -> np.ndarray:
        """Read-only view of the per-vertex historical pickup counts."""
        view = self._pickups.view()
        view.flags.writeable = False
        return view

    def prob(self, v: int, cluster: int) -> float:
        """``B_{v,cluster}``: probability a trip from ``v`` ends in ``cluster``."""
        return float(self._matrix[v, cluster])

    def pickup_count(self, v: int) -> float:
        """Historical pickups observed at vertex ``v``."""
        return float(self._pickups[v])

    def pickup_frequency(self, v: int) -> float:
        """Share of all historical pickups that happened at ``v``."""
        return float(self._pickup_freq[v])

    def relative_pickup_frequency(self, v: int) -> float:
        """Pickups at ``v`` relative to the hottest vertex, in ``[0, 1]``."""
        if self._peak <= 0:
            return 0.0
        return float(self._pickups[v]) / self._peak

    def mass_to(self, v: int, dest_clusters) -> float:
        """``psi_v``: probability a trip from ``v`` ends in any of ``dest_clusters``.

        This is the accumulated transition probability used to weight
        vertices in fine-grained probabilistic routing (step 3 of
        Algorithm 4).
        """
        idx = np.fromiter(dest_clusters, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self._matrix[v, idx].sum())

    def suitable_demand(self, vertices, dest_clusters) -> np.ndarray:
        """``mass_to(v, dest_clusters) * relative_pickup_frequency(v)`` per vertex.

        The array sibling of the two scalar methods, element for
        element the same floats: step 3 of Algorithm 4 reads it once
        per (partition, heading sector) instead of calling them per
        vertex per leg.
        """
        verts = np.fromiter(vertices, dtype=np.int64)
        idx = np.fromiter(dest_clusters, dtype=np.int64)
        if idx.size == 0 or self._peak <= 0:
            return np.zeros(verts.size)
        mass = self._matrix[np.ix_(verts, idx)].sum(axis=1)
        return mass * (self._pickups[verts] / self._peak)

    def partition_probability(self, vertices, dest_clusters) -> float:
        """``pi_i``: chance of meeting a suitable request inside a partition.

        Step 1 of Algorithm 4 sums, over the partition's vertices, the
        transition probability towards the suitable destination set.
        Each vertex contributes proportionally to its historical pickup
        frequency, so partitions that generate little demand score low
        even if their few trips head the right way.
        """
        verts = np.fromiter(vertices, dtype=np.int64)
        dests = np.fromiter(dest_clusters, dtype=np.int64)
        if verts.size == 0 or dests.size == 0:
            return 0.0
        mass = self._matrix[np.ix_(verts, dests)].sum(axis=1)
        return float((mass * self._pickup_freq[verts]).sum())

    def memory_bytes(self) -> int:
        """Approximate footprint of the model's arrays."""
        return self._matrix.nbytes + self._pickups.nbytes + self._pickup_freq.nbytes
