"""Mobility vectors and mobility clustering (Section IV-B2 of the paper).

A *mobility vector* (Definition 9) points from an origin to a
destination; two movers can plausibly share a taxi when their vectors'
travel directions are similar, measured by cosine similarity (Eq. 1)
against a threshold ``lambda`` (the paper defaults to cos 45 deg ~ 0.707).

Requests and busy taxis are grouped into *mobility clusters*: the first
request seeds a cluster, later ones join the best cluster whose general
vector is within ``lambda`` or found a new one.  Each cluster maintains
a *general mobility vector* (member origins and destinations averaged)
and a taxi list ``C_a.L_t`` of the busy taxis travelling the same way —
the right-hand side of the candidate-search intersection (Eq. 3).
Attached to a :class:`~repro.fleet.table.FleetTable`, the index writes
each taxi's cluster and direction unit into the table's columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import DEFAULT_LAMBDA
from ..network.geo import cosine_similarity

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..fleet.table import FleetTable

#: Sentinel unit for a zero-length direction: aligned with everything
#: (:func:`cosine_similarity` returns 1.0 for degenerate vectors).
ZERO_UNIT = (0.0, 0.0, 0.0)

#: A taxi without a mobility vector, as the fleet table's ``unit`` row.
_NO_UNIT = (math.nan, math.nan, math.nan)


def direction_unit(dx: float, dy: float) -> tuple[float, float, float]:
    """``(x/scale, y/scale, hypot(...))`` — the rescaled components and
    norm that :func:`cosine_similarity` derives from a direction, cached
    so the per-dispatch alignment tests skip straight to the dot
    product.  :data:`ZERO_UNIT` (by identity) marks degenerate vectors.
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
        "taxis",
        "_cached_vector",
    )

    def __init__(self, cluster_id: int) -> None:
        self.cluster_id = cluster_id
        self.members: dict[int, MobilityVector] = {}
        self.sum_ox = 0.0
        self.sum_oy = 0.0
        self.sum_dx = 0.0
        self.sum_dy = 0.0
        self.taxis: set[int] = set()
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
    """Incremental mobility clustering of requests plus taxi lists.

    Parameters
    ----------
    lam:
        Direction threshold ``lambda``; joining a cluster requires the
        cosine similarity with its general vector to reach ``lam``.

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
        self._cluster_of_taxi: dict[int, int] = {}
        self._taxi_units: dict[int, tuple[float, float, float]] = {}
        self._next_id = 0
        # Cached (cluster ids, normalised direction units) over the live
        # clusters, rebuilt lazily after membership changes; the
        # alignment lookups on the dispatch hot path then reduce to one
        # dot product per cluster (a dispatch sees ~a dozen clusters,
        # below the break-even size of an array kernel).
        self._table: tuple[list[int], list[tuple[float, float, float]]] | None = None
        self._fleet_table: FleetTable | None = None

    def attach(self, table: FleetTable) -> None:
        """Write every later change of a taxi's cluster or unit into
        ``table``; attach before the first update."""
        self._fleet_table = table

    def _write_taxi(self, taxi_id: int) -> None:
        """Mirror one taxi's cluster and unit into the attached table."""
        table = self._fleet_table
        row = None if table is None else table.row_of.get(taxi_id)
        if table is None or row is None:
            return
        cid = self._cluster_of_taxi.get(taxi_id)
        table.cluster[row] = -1 if cid is None else cid
        table.unit[row] = self._taxi_units.get(taxi_id, _NO_UNIT)

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

    def cluster_of_taxi(self, taxi_id: int) -> int | None:
        """Cluster whose taxi list holds ``taxi_id``, if any."""
        return self._cluster_of_taxi.get(taxi_id)

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
            for taxi_id in cluster.taxis:
                self._cluster_of_taxi.pop(taxi_id, None)
                self._write_taxi(taxi_id)
            del self._clusters[cid]
        self._table = None

    def matching_clusters(self, vec: MobilityVector) -> list[int]:
        """Clusters whose general vector is aligned with ``vec``.

        Candidate searching uses the aligned clusters' taxi lists; in
        the common case this is a single cluster (the paper's ``C_a``).
        """
        if not self._clusters:
            return []
        ids, units = self._direction_table()
        bu = direction_unit(*vec.direction)
        lam = self._lam
        return [
            ids[k] for k, unit in enumerate(units) if unit_similarity(unit, bu) >= lam
        ]

    # ------------------------------------------------------------------
    # taxi side
    # ------------------------------------------------------------------
    def update_taxi(self, taxi_id: int, vec: MobilityVector | None) -> int | None:
        """(Re)assign a busy taxi to the most aligned cluster.

        ``vec`` is the taxi's mobility vector — current location to the
        centroid of its passengers' destinations.  Pass ``None`` for an
        empty taxi (the paper does not cluster empty taxis); the taxi is
        then removed from any cluster.  Returns the new cluster id.
        """
        old = self._cluster_of_taxi.pop(taxi_id, None)
        if old is not None and old in self._clusters:
            self._clusters[old].taxis.discard(taxi_id)
        best_id: int | None = None
        if vec is None:
            self._taxi_units.pop(taxi_id, None)
        else:
            self._taxi_units[taxi_id] = direction_unit(*vec.direction)
            best_id, best_sim = self._best_cluster(vec)
            if best_id is not None and best_sim >= self._lam:
                self._clusters[best_id].taxis.add(taxi_id)
                self._cluster_of_taxi[taxi_id] = best_id
            else:
                best_id = None
        self._write_taxi(taxi_id)
        return best_id

    def taxi_unit(self, taxi_id: int) -> tuple[float, float, float] | None:
        """Normalised direction unit of a busy taxi's mobility vector.

        ``None`` when the taxi has no vector; :data:`ZERO_UNIT` (by
        identity) when the vector is degenerate.  Candidate searching
        uses this for its per-taxi similarity fallback without
        re-deriving the components every dispatch.
        """
        return self._taxi_units.get(taxi_id)

    def alignment_mask(
        self, request_units: np.ndarray, clusters: np.ndarray, units: np.ndarray
    ) -> np.ndarray:
        """Rule 1's direction test for every (request, taxi) pair at once.

        ``request_units`` holds one :func:`direction_unit` per row;
        taxi ``j`` is given by its cluster id ``clusters[j]`` (``-1``:
        none) and its direction unit ``units[j]`` (a NaN row: no
        vector), the fleet table's ``cluster`` and ``unit`` columns.
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
        """Rough footprint of the clustering structures."""
        total = 0
        for cluster in self._clusters.values():
            total += 128 + 72 * len(cluster.members) + 28 * len(cluster.taxis)
        total += 56 * (len(self._cluster_of_request) + len(self._cluster_of_taxi))
        total += 72 * len(self._taxi_units)
        return total
