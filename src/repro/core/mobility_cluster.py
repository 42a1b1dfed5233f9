"""Mobility vectors and mobility clustering (Section IV-B2 of the paper).

A *mobility vector* (Definition 9) points from an origin to a
destination; two movers can plausibly share a taxi when their vectors'
travel directions are similar, measured by cosine similarity (Eq. 1)
against a threshold ``lambda`` (the paper defaults to cos 45 deg ~ 0.707).

Requests and busy taxis are grouped into *mobility clusters*: the first
request seeds a cluster, later ones join the best cluster whose general
vector is within ``lambda`` or found a new one.  Each cluster maintains
a *general mobility vector* (member origins and destinations averaged).
The taxi side is two columns over the registered fleet, each taxi's
cluster and its direction unit; the taxi list ``C_a.L_t`` of the busy
taxis travelling cluster ``a``'s way — the right-hand side of the
candidate-search intersection (Eq. 3) — is ``cluster == a``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_LAMBDA
from ..network.geo import cosine_similarity

#: Sentinel unit for a zero-length direction: aligned with everything
#: (:func:`cosine_similarity` returns 1.0 for degenerate vectors).
ZERO_UNIT = (0.0, 0.0, 0.0)


def direction_unit(dx: float, dy: float) -> tuple[float, float, float]:
    """``(x/scale, y/scale, hypot(...))`` — the rescaled components and
    norm that :func:`cosine_similarity` derives from a direction, cached
    so the per-dispatch alignment tests skip straight to the dot
    product.  :data:`ZERO_UNIT` (by identity) marks degenerate vectors;
    any other unit has norm at least 1, so a stored ``unit[2] == 0.0``
    marks them too.
    """
    scale = max(abs(dx), abs(dy))
    if scale == 0.0:
        return ZERO_UNIT
    xn = dx / scale
    yn = dy / scale
    return (xn, yn, math.hypot(xn, yn))


def unit_similarity(
    a: tuple[float, float, float], b: tuple[float, float, float]
) -> float:
    """:func:`cosine_similarity` over two precomputed units, bit for bit.

    ``a`` and ``b`` are :func:`direction_unit` results; either being
    :data:`ZERO_UNIT` yields 1.0 exactly like the scalar reference.
    """
    if a is ZERO_UNIT or b is ZERO_UNIT:
        return 1.0
    value = (a[0] * b[0] + a[1] * b[1]) / (a[2] * b[2])
    return max(-1.0, min(1.0, value))


def misaligned_keys(
    keys: Sequence[int],
    units: Sequence[Sequence[float]],
    req_unit: tuple[float, float, float],
    lam: float,
) -> list[int]:
    """The ``keys[k]`` whose unit ``units[k]`` fails Rule 1 against
    ``req_unit``: a NaN row (no mobility vector), or
    ``unit_similarity(units[k], req_unit) < lam``.

    Rows are :func:`direction_unit` triples as lists; ``req_unit`` is
    one, :data:`ZERO_UNIT` by identity.  The arithmetic is
    :func:`unit_similarity`'s, operation for operation, so each verdict
    is the scalar one; a zero norm is :data:`ZERO_UNIT`.  The clamp to
    ``[-1, 1]`` is left out: for ``lam > -1`` it cannot move a value
    across ``lam``, and at ``lam = -1`` no clamped value is below it,
    which the ``-inf`` bound reproduces.
    """
    if req_unit is ZERO_UNIT:
        return [key for key, (_ux, _uy, norm) in zip(keys, units) if norm != norm]
    bound = lam if lam > -1.0 else -math.inf
    rx, ry, rn = req_unit
    return [
        key
        for key, (ux, uy, norm) in zip(keys, units)
        if norm != norm or (norm != 0.0 and (ux * rx + uy * ry) / (norm * rn) < bound)
    ]


def _misaligned(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """``unit_similarity(a[i], b[j]) < lam`` as one ``(len(a), len(b))`` mask.

    Rows are :func:`direction_unit` triples.  The arithmetic is
    :func:`unit_similarity`'s, operation for operation, so each verdict
    is the scalar one.  A :data:`ZERO_UNIT` on either side divides 0 by
    0; the NaN fails ``< lam`` exactly as the scalar 1.0 does (``lam``
    is a cosine, so never above 1).  An all-NaN row is never misaligned
    either — callers that use one for "no unit" mask it themselves.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (a[:, None, 0] * b[None, :, 0] + a[:, None, 1] * b[None, :, 1]) / (
            a[:, None, 2] * b[None, :, 2]
        )
        return np.maximum(-1.0, np.minimum(1.0, value)) < lam


@dataclass(frozen=True, slots=True)
class MobilityVector:
    """A directed origin -> destination vector on the plane (Definition 9)."""

    ox: float
    oy: float
    dx: float
    dy: float

    @property
    def direction(self) -> tuple[float, float]:
        """The travel-direction components ``(dx - ox, dy - oy)``."""
        return (self.dx - self.ox, self.dy - self.oy)

    def similarity(self, other: "MobilityVector") -> float:
        """Cosine similarity of the two travel directions (Eq. 1)."""
        ax, ay = self.direction
        bx, by = other.direction
        return cosine_similarity(ax, ay, bx, by)


class _Cluster:
    """Internal cluster state: member sums for the general vector."""

    __slots__ = (
        "cluster_id",
        "members",
        "sum_ox",
        "sum_oy",
        "sum_dx",
        "sum_dy",
        "_cached_vector",
    )

    def __init__(self, cluster_id: int) -> None:
        self.cluster_id = cluster_id
        self.members: dict[int, MobilityVector] = {}
        self.sum_ox = 0.0
        self.sum_oy = 0.0
        self.sum_dx = 0.0
        self.sum_dy = 0.0
        self._cached_vector: MobilityVector | None = None

    def add(self, member_id: int, vec: MobilityVector) -> None:
        self.members[member_id] = vec
        self.sum_ox += vec.ox
        self.sum_oy += vec.oy
        self.sum_dx += vec.dx
        self.sum_dy += vec.dy
        self._cached_vector = None

    def remove(self, member_id: int) -> None:
        vec = self.members.pop(member_id)
        self.sum_ox -= vec.ox
        self.sum_oy -= vec.oy
        self.sum_dx -= vec.dx
        self.sum_dy -= vec.dy
        self._cached_vector = None

    def general_vector(self) -> MobilityVector:
        if self._cached_vector is None:
            n = max(len(self.members), 1)
            self._cached_vector = MobilityVector(
                self.sum_ox / n, self.sum_oy / n, self.sum_dx / n, self.sum_dy / n
            )
        return self._cached_vector


class MobilityClusterIndex:
    """Incremental mobility clustering of requests plus taxi columns.

    Parameters
    ----------
    lam:
        Direction threshold ``lambda``; joining a cluster requires the
        cosine similarity with its general vector to reach ``lam``.

    Attributes
    ----------
    cluster:
        One int64 cell per registered taxi: the cluster whose taxi list
        holds it, ``-1`` for none.
    unit:
        ``(taxis, 3)`` float64: each taxi's :func:`direction_unit`, a
        NaN row for a taxi without a mobility vector.
    column_of:
        Taxi id -> its cell, the layout :meth:`register` was given.

    The index is updated only when requests arrive or finish and when
    taxi routes change, as the paper prescribes ("negligible
    computation overheads").
    """

    def __init__(self, lam: float = DEFAULT_LAMBDA) -> None:
        if not -1.0 <= lam <= 1.0:
            raise ValueError("lambda must be a cosine in [-1, 1]")
        self._lam = float(lam)
        self._clusters: dict[int, _Cluster] = {}
        self._cluster_of_request: dict[int, int] = {}
        self._next_id = 0
        # Cached (cluster ids, normalised direction units) over the live
        # clusters, rebuilt lazily after membership changes; the
        # alignment lookups on the dispatch hot path then reduce to one
        # dot product per cluster (a dispatch sees ~a dozen clusters,
        # below the break-even size of an array kernel).
        self._table: tuple[list[int], list[tuple[float, float, float]]] | None = None
        self.register({})

    def register(self, column_of: Mapping[int, int]) -> None:
        """Give each taxi of ``column_of`` (id -> cell, ``0..n-1``) its
        cells, with no cluster and no vector.  Call before the first
        update."""
        self.column_of = column_of
        self.cluster = np.full(len(column_of), -1, dtype=np.int64)
        self.unit = np.full((len(column_of), 3), math.nan)

    # ------------------------------------------------------------------
    @property
    def lam(self) -> float:
        """The direction threshold ``lambda``."""
        return self._lam

    @property
    def num_clusters(self) -> int:
        """Number of live clusters."""
        return len(self._clusters)

    def cluster_ids(self) -> list[int]:
        """Ids of all live clusters."""
        return list(self._clusters)

    def cluster_of_request(self, request_id: int) -> int | None:
        """Cluster holding ``request_id``, if any."""
        return self._cluster_of_request.get(request_id)

    # ------------------------------------------------------------------
    # request side
    # ------------------------------------------------------------------
    def _direction_table(self) -> tuple[list[int], list[tuple[float, float, float]]]:
        """Cluster ids (dict order) plus their general-vector units."""
        table = self._table
        if table is None:
            ids = list(self._clusters)
            units: list[tuple[float, float, float]] = []
            for cid in ids:
                dx, dy = self._clusters[cid].general_vector().direction
                units.append(direction_unit(dx, dy))
            table = (ids, units)
            self._table = table
        return table

    def _best_cluster(self, vec: MobilityVector) -> tuple[int | None, float]:
        if not self._clusters:
            return None, -2.0
        ids, units = self._direction_table()
        bu = direction_unit(*vec.direction)
        # Strict improvement keeps the first maximum, matching a
        # :func:`cosine_similarity` loop over dict iteration order.
        best_k = 0
        best = -2.0
        for k, unit in enumerate(units):
            sim = unit_similarity(unit, bu)
            if sim > best:
                best = sim
                best_k = k
        return ids[best_k], best

    def add_request(self, request_id: int, vec: MobilityVector) -> int:
        """Place a request: join the most similar cluster or found a new one.

        Returns the cluster id the request ended up in.
        """
        if request_id in self._cluster_of_request:
            raise ValueError(f"request {request_id} is already clustered")
        best_id, best_sim = self._best_cluster(vec)
        if best_id is None or best_sim < self._lam:
            cluster = _Cluster(self._next_id)
            self._next_id += 1
            self._clusters[cluster.cluster_id] = cluster
            best_id = cluster.cluster_id
        self._clusters[best_id].add(request_id, vec)
        self._cluster_of_request[request_id] = best_id
        self._table = None
        return best_id

    def remove_request(self, request_id: int) -> None:
        """Drop a finished/expired request; empty clusters are deleted."""
        cid = self._cluster_of_request.pop(request_id, None)
        if cid is None:
            return
        cluster = self._clusters[cid]
        cluster.remove(request_id)
        if not cluster.members:
            self.cluster[self.cluster == cid] = -1
            del self._clusters[cid]
        self._table = None

    def matching_clusters(self, unit: tuple[float, float, float]) -> list[int]:
        """Clusters whose general vector is aligned with a direction, given
        as its :func:`direction_unit`.

        Candidate searching uses the aligned clusters' taxi lists; in
        the common case this is a single cluster (the paper's ``C_a``).
        """
        if not self._clusters:
            return []
        ids, units = self._direction_table()
        lam = self._lam
        return [ids[k] for k, u in enumerate(units) if unit_similarity(u, unit) >= lam]

    # ------------------------------------------------------------------
    # taxi side
    # ------------------------------------------------------------------
    def update_taxi(self, taxi_id: int, vec: MobilityVector | None) -> int | None:
        """(Re)assign a busy taxi to the most aligned cluster.

        ``vec`` is the taxi's mobility vector — current location to the
        centroid of its passengers' destinations.  Pass ``None`` for an
        empty taxi (the paper does not cluster empty taxis); the taxi is
        then removed from any cluster and its unit cleared.  Returns the
        new cluster id.  Raises ``KeyError`` for an id that was never
        registered.
        """
        column = self.column_of[taxi_id]
        best_id: int | None = None
        if vec is None:
            self.unit[column] = math.nan
        else:
            self.unit[column] = direction_unit(*vec.direction)
            best_id, best_sim = self._best_cluster(vec)
            if best_id is not None and best_sim < self._lam:
                best_id = None
        self.cluster[column] = -1 if best_id is None else best_id
        return best_id

    def alignment_mask(
        self, request_units: np.ndarray, clusters: np.ndarray, units: np.ndarray
    ) -> np.ndarray:
        """Rule 1's direction test for every (request, taxi) pair at once.

        ``request_units`` holds one :func:`direction_unit` per row;
        taxi ``j`` is given by its cluster id ``clusters[j]`` (``-1``:
        none) and its direction unit ``units[j]`` (a NaN row: no
        vector), cells of :attr:`cluster` and :attr:`unit`.
        ``out[i, j]`` is True when taxi ``j`` travels request ``i``'s
        way — its cluster is one of the request's
        :meth:`matching_clusters`, or its own unit is within ``lambda``
        — and False for a taxi with neither a cluster nor a vector.
        Whole-window candidate screening asks this once per flush
        instead of once per pair; the verdicts are the scalar ones bit
        for bit (see :func:`_misaligned`).
        """
        lam = self._lam
        cluster_ids, cluster_units = self._direction_table()
        matching = ~_misaligned(
            request_units, np.array(cluster_units, dtype=np.float64).reshape(-1, 3), lam
        )
        # One extra all-False column for the taxis no cluster lists: the
        # slot of every id that is not a live cluster, ``-1`` included.
        matching = np.concatenate(
            [matching, np.zeros((len(request_units), 1), dtype=bool)], axis=1
        )
        slot_of = np.full(self._next_id + 1, len(cluster_ids), dtype=np.int64)
        slot_of[cluster_ids] = np.arange(len(cluster_ids))
        own = ~_misaligned(request_units, units, lam) & ~np.isnan(units[:, 2])
        return matching[:, slot_of[clusters]] | own

    def memory_bytes(self) -> int:
        """Rough footprint of the clusters plus the two taxi columns' bytes."""
        total = self.cluster.nbytes + self.unit.nbytes
        for cluster in self._clusters.values():
            total += 128 + 72 * len(cluster.members)
        return total + 56 * len(self._cluster_of_request)
