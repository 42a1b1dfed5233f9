"""A small, dependency-light k-means used by the map-partitioning code.

The paper's bipartite map partitioning calls k-means three times per
iteration — on geographic coordinates, on transition-probability
vectors, and again on coordinates within each transition cluster — so a
single well-tested implementation with k-means++ seeding is shared by
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Lloyd iterations before :func:`kmeans` stops without converging.
MAX_ITER = 100

#: Convergence: an iteration that improves the inertia by at most this
#: share of it is the last.
TOL = 1e-6


@dataclass(frozen=True, slots=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    labels:
        ``(n,)`` integer cluster assignment for each sample.
    centers:
        ``(k, d)`` cluster centroids.
    inertia:
        Sum of squared distances of samples to their assigned centre.
    iterations:
        Number of Lloyd iterations performed.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int


def _kmeanspp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centres proportionally to D^2.

    Each weighted draw is ``Generator.choice(n, p=probs)`` spelled out:
    one ``rng.random()`` looked up with ``searchsorted(side="right")``
    in the normalised cumulative table ``choice`` builds, so the same
    stream position picks the same sample.
    """
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All remaining points coincide with an existing centre.
            centers[j] = data[int(rng.integers(n))]
            continue
        cdf = (closest_sq / total).cumsum()
        cdf /= cdf[-1]
        choice = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = data[choice]
        dist_sq = ((data - centers[j]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def _assign(
    data: np.ndarray, data_sq: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Label each sample with its nearest centre; also return distances^2.

    ``data_sq`` is ``(data**2).sum(axis=1)``, the same every iteration.
    """
    # (n, k) pairwise squared distances without materialising n*k*d.
    sq = data_sq[:, None] - 2.0 * data @ centers.T + (centers**2).sum(axis=1)[None, :]
    labels = np.argmin(sq, axis=1)
    return labels, np.maximum(sq[np.arange(data.shape[0]), labels], 0.0)


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int | None = 0,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialisation.

    Parameters
    ----------
    data:
        ``(n, d)`` sample matrix.
    k:
        Requested number of clusters.  Clamped to ``n`` when fewer
        samples than clusters are supplied.
    seed:
        Seed for the seeding RNG; determinism matters because map
        partitions feed every downstream index.

    Empty clusters are re-seeded with the sample farthest from its
    centre, so the result always has exactly ``min(k, n)`` clusters.
    Each centroid is its cluster's column sums, added in row order,
    over its count: for ``d >= 2`` that is
    ``data[labels == j].mean(axis=0)`` bit for bit.  On one-column data
    numpy's ``mean`` sums pairwise, so a centre can differ from it in
    the last bit; the partitioners' only one-column input is the
    transition matrix of a single partition, clustered with ``k = 1``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D array")
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty data set")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    rng = np.random.default_rng(seed)

    centers = _kmeanspp_init(data, k, rng)
    data_sq = (data**2).sum(axis=1)
    labels, dist_sq = _assign(data, data_sq, centers)
    inertia = float(dist_sq.sum())
    iterations = 0
    d = data.shape[1]
    values = data.ravel()
    columns = np.arange(d)

    for iterations in range(1, MAX_ITER + 1):
        # Every cluster's column sums in one bincount over the flattened
        # samples: bin ``j * d + c`` adds column ``c`` of cluster ``j``'s
        # samples in row order.
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount(
            (labels[:, None] * d + columns).ravel(), weights=values, minlength=k * d
        )
        centers = sums.reshape(k, d) / np.maximum(counts, 1)[:, None]
        for j in np.flatnonzero(counts == 0).tolist():
            # Re-seed the empty cluster at the worst-fit sample.
            worst = int(np.argmax(dist_sq))
            centers[j] = data[worst]
            dist_sq[worst] = 0.0
        labels, dist_sq = _assign(data, data_sq, centers)
        new_inertia = float(dist_sq.sum())
        if inertia - new_inertia <= TOL * max(inertia, 1e-12):
            inertia = new_inertia
            break
        inertia = new_inertia

    return KMeansResult(labels=labels, centers=centers, inertia=inertia, iterations=iterations)
