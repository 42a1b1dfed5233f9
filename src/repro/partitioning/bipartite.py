"""Bipartite map partitioning (Section IV-B1 of the paper).

The road-network vertices are partitioned by alternating between two
views until a fixed point: *where* a vertex is (geography) and *where
trips from it go* (transition patterns mined from historical data).

Per iteration:

1. **Transition probability calculation** — with the current ``kappa``
   spatial clusters as the destination space, estimate each vertex's
   transition vector ``B_i`` from the historical trips.
2. **Transition clustering** — k-means the ``B_i`` into ``k_t < kappa``
   transition clusters (default ``k_t = 20``).
3. **Geo-clustering on transition clusters** — split each transition
   cluster of size ``n`` into ``round(n * kappa / N)`` spatial clusters
   by location.

The spatial clusters produced by step 3 become the partitions; the loop
stops when they stop changing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..network.graph import RoadNetwork
from .kmeans import kmeans
from .transition import TransitionModel

DEFAULT_TRANSITION_CLUSTERS = 20

#: Safety cap on the outer loop of :func:`bipartite_partition` (the
#: paper iterates until the spatial clusters stop changing).
MAX_ITERATIONS = 10


@dataclass(frozen=True)
class MapPartitioning:
    """A partitioning of the road-network vertices.

    Attributes
    ----------
    labels:
        ``(n,)`` partition id per vertex.
    method:
        Human-readable name of the strategy that produced it
        (``"bipartite"``, ``"grid"``, ``"geo-kmeans"``).
    iterations:
        Outer-loop iterations (bipartite only; 0 otherwise).
    transition_model:
        The final :class:`TransitionModel` fitted against these
        partitions, when historical trips were available.
    """

    labels: np.ndarray
    method: str
    iterations: int = 0
    transition_model: TransitionModel | None = None
    _partitions: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        num = int(labels.max()) + 1
        if sorted(set(labels.tolist())) != list(range(num)):
            raise ValueError("partition labels must be contiguous from 0")
        parts: list[list[int]] = [[] for _ in range(num)]
        for v, z in enumerate(labels):
            parts[int(z)].append(v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_partitions", parts)

    @property
    def num_partitions(self) -> int:
        """Number of partitions ``kappa``."""
        return len(self._partitions)

    @property
    def partitions(self) -> list[list[int]]:
        """Vertex lists per partition."""
        return self._partitions

    def sizes(self) -> np.ndarray:
        """Partition sizes."""
        return np.bincount(self.labels, minlength=self.num_partitions)

    def memory_bytes(self) -> int:
        """Approximate footprint of labels plus the transition model."""
        total = self.labels.nbytes + sum(64 + 8 * len(p) for p in self._partitions)
        if self.transition_model is not None:
            total += self.transition_model.memory_bytes()
        return total

    # ------------------------------------------------------------------
    # artifact-store serialisation
    # ------------------------------------------------------------------
    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """``(arrays, meta)`` for the artifact store; exact round trip."""
        arrays: dict[str, np.ndarray] = {"labels": self.labels}
        if self.transition_model is not None:
            arrays["transition_matrix"] = self.transition_model.matrix
            arrays["pickup_counts"] = self.transition_model.pickup_counts
        meta = {"method": self.method, "iterations": int(self.iterations)}
        return arrays, meta

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], meta: dict) -> "MapPartitioning":
        """Rebuild from stored arrays; bit-identical to the fresh build.

        The transition model is reconstructed from its persisted matrix
        and pickup counts (its derived pickup frequencies are the same
        float64 division either way).
        """
        model = None
        if "transition_matrix" in arrays:
            model = TransitionModel(
                np.asarray(arrays["transition_matrix"], dtype=np.float64).copy(),
                np.asarray(arrays["pickup_counts"], dtype=np.float64).copy(),
            )
        return cls(
            labels=np.asarray(arrays["labels"], dtype=np.int64).copy(),
            method=str(meta.get("method", "bipartite")),
            iterations=int(meta.get("iterations", 0)),
            transition_model=model,
        )


def _relabel_contiguous(labels: np.ndarray) -> np.ndarray:
    """Map arbitrary labels to a contiguous 0..k-1 range."""
    _, contiguous = np.unique(labels, return_inverse=True)
    return contiguous.astype(np.int64)


def _partition_signature(labels: np.ndarray) -> bytes:
    """Order-independent signature of a partitioning, for convergence
    tests: the labels renumbered in order of first occurrence, so two
    labellings of the same vertex groups give the same bytes."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse].tobytes()


def bipartite_partition(
    network: RoadNetwork,
    historical_trips: np.ndarray,
    num_partitions: int,
    num_transition_clusters: int = DEFAULT_TRANSITION_CLUSTERS,
    seed: int = 0,
) -> MapPartitioning:
    """Run the bipartite map partitioning to a fixed point.

    Parameters
    ----------
    network:
        Road network whose vertices are partitioned.
    historical_trips:
        ``(m, 2)`` array of historical (origin vertex, destination
        vertex) pairs; this is the mined mobility data.
    num_partitions:
        Target ``kappa``.  The final count can differ slightly because
        step 3 allocates clusters by rounding per transition cluster.
    num_transition_clusters:
        ``k_t`` of step 2; the paper fixes 20 and requires
        ``k_t < kappa``.
    seed:
        RNG seed shared by all k-means invocations.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    n = network.num_vertices
    num_partitions = min(num_partitions, n)
    k_t = min(num_transition_clusters, num_partitions) if num_partitions > 1 else 1
    xy = np.asarray(network.xy, dtype=np.float64)
    trips = np.asarray(historical_trips, dtype=np.int64)

    # Initial spatial clustering on geography alone.
    labels = kmeans(xy, num_partitions, seed=seed).labels
    labels = _relabel_contiguous(labels)
    signature = _partition_signature(labels)
    model = TransitionModel.fit(trips, labels, int(labels.max()) + 1)

    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        kappa = int(labels.max()) + 1
        # Step 1: transition probabilities against the current clusters.
        model = TransitionModel.fit(trips, labels, kappa)

        # Step 2: cluster vertices by transition behaviour.
        transition_labels = kmeans(model.matrix, k_t, seed=seed + iterations).labels

        # Step 3: geo-split each transition cluster proportionally.
        new_labels = np.empty(n, dtype=np.int64)
        next_id = 0
        for t in range(int(transition_labels.max()) + 1):
            members = np.flatnonzero(transition_labels == t)
            if members.size == 0:
                continue
            want = int(np.floor(members.size * num_partitions / n + 0.5))
            want = max(1, min(want, members.size))
            sub = kmeans(xy[members], want, seed=seed + 31 * t + iterations).labels
            new_labels[members] = next_id + sub
            next_id += int(sub.max()) + 1
        new_labels = _relabel_contiguous(new_labels)

        new_signature = _partition_signature(new_labels)
        labels = new_labels
        if new_signature == signature:
            break
        signature = new_signature

    kappa = int(labels.max()) + 1
    model = TransitionModel.fit(trips, labels, kappa)
    return MapPartitioning(
        labels=labels,
        method="bipartite",
        iterations=iterations,
        transition_model=model,
    )


def geo_partition(
    network: RoadNetwork,
    num_partitions: int,
    historical_trips: np.ndarray | None = None,
    seed: int = 0,
) -> MapPartitioning:
    """Pure geographic k-means partitioning (ablation baseline).

    This is what you get from the bipartite scheme if the transition
    view is ignored entirely; used to quantify the contribution of
    mobility patterns (Table V companion).
    """
    labels = _relabel_contiguous(kmeans(np.asarray(network.xy), num_partitions, seed=seed).labels)
    model = None
    if historical_trips is not None:
        model = TransitionModel.fit(
            np.asarray(historical_trips, dtype=np.int64),
            labels,
            int(labels.max()) + 1,
        )
    return MapPartitioning(labels=labels, method="geo-kmeans", transition_model=model)
