"""Synthetic Chengdu-like taxi demand generator.

The paper's workload is the Didi GAIA Chengdu trace: 7.07M transactions
inside the 2nd Ring Road, with a pronounced morning peak on workdays and
a flatter weekend profile (their Fig. 5).  That trace is proprietary, so
this module synthesises a statistically similar one:

* the city is covered by *zones* (anchored at hotspot vertices) with
  types — residential, business, leisure, transport hub;
* each hour of day has per-zone-type origin weights and an
  origin-type -> destination-type flow matrix (commuting towards
  business zones in the morning peak, outward in the evening, diffuse
  on weekends), which gives vertices *learnable transition patterns* —
  exactly what bipartite map partitioning and probabilistic routing
  consume;
* arrivals are Poisson within each hour with rates following an
  hourly profile calibrated to the paper's peak/non-peak contrast
  (8–9 a.m. workday is the busiest hour; 10–11 a.m. weekend carries
  roughly half that load).

Generated records carry the same fields as the GAIA data (trip id, taxi
id, release time, origin/destination vertices).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..network.graph import RoadNetwork
from .dataset import TripDataset

ZONE_TYPES = ("residential", "business", "leisure", "transport")

#: Zone ``i`` gets type ``_TYPE_CYCLE[i % 5]``: residential twice as
#: common as the others (as in real cities).
_TYPE_CYCLE = ("residential", "business", "residential", "leisure", "transport")

#: Taxi-id space of the generated historical records.
NUM_TAXIS_IN_TRACE = 400

#: How strongly demand runs along a few corridors: the exponent applied
#: both to the hourly type-to-type flow shares (see :func:`_flow_matrix`)
#: and to the exponential zone-to-zone affinities.  ``1.0`` would leave
#: flows as tabulated and partner zones diffuse; ``4.0`` makes trips
#: from a zone concentrate on a handful of partner zones — the learnable
#: transition patterns partitioning and probabilistic routing mine.
CONCENTRATION = 4.0

#: Hourly demand multipliers (0-23h) for workdays, shaped after the
#: paper's Fig. 5(a): morning peak 8-9, evening peak 17-19, quiet night.
WORKDAY_HOURLY_PROFILE = np.array(
    [
        0.15, 0.10, 0.08, 0.08, 0.10, 0.25, 0.55, 0.85,
        1.00, 0.90, 0.70, 0.65, 0.70, 0.68, 0.66, 0.68,
        0.75, 0.92, 0.95, 0.80, 0.60, 0.45, 0.35, 0.22,
    ]
)

#: Weekend profile: later, flatter, with a broad midday plateau.
WEEKEND_HOURLY_PROFILE = np.array(
    [
        0.20, 0.15, 0.10, 0.08, 0.08, 0.12, 0.25, 0.40,
        0.50, 0.52, 0.52, 0.55, 0.58, 0.60, 0.60, 0.58,
        0.58, 0.60, 0.62, 0.60, 0.55, 0.48, 0.40, 0.30,
    ]
)


def _flow_matrix(hour: int, weekend: bool, concentration: float = 1.0) -> np.ndarray:
    """Origin-type -> destination-type flow shares for one hour of day.

    Rows/columns follow :data:`ZONE_TYPES`.  Workday mornings push
    residential -> business/transport; evenings reverse the commute;
    weekends favour leisure.  ``concentration > 1`` sharpens the flows
    (urban demand runs along a few corridors; Chengdu's morning peak is
    strongly commute-dominated), ``< 1`` flattens them.  Rows are
    normalised to sum to 1.
    """
    base = np.full((4, 4), 0.10)
    if weekend:
        if 9 <= hour < 21:
            base[:, 2] += 0.45  # everyone heads to leisure zones
            base[0, 2] += 0.15
        else:
            base[:, 0] += 0.40  # heading home
    else:
        if 6 <= hour < 10:
            base[0, 1] += 0.60  # residential -> business commute
            base[0, 3] += 0.15
            base[3, 1] += 0.30
        elif 16 <= hour < 20:
            base[1, 0] += 0.60  # business -> residential commute
            base[1, 2] += 0.15
            base[2, 0] += 0.25
        else:
            base[:, 1] += 0.15
            base[:, 0] += 0.15
    if concentration != 1.0:  # repro-lint: disable=REP004 reason=exact default sentinel; base**1.0 is the identity, any perturbed value takes the power path
        base = base ** concentration
    return base / base.sum(axis=1, keepdims=True)


def _origin_weights(hour: int, weekend: bool) -> np.ndarray:
    """Relative pick-up intensity per zone type for one hour of day."""
    if weekend:
        if 9 <= hour < 21:
            w = np.array([0.9, 0.3, 1.2, 0.6])
        else:
            w = np.array([0.5, 0.2, 1.0, 0.5])
    else:
        if 6 <= hour < 10:
            w = np.array([1.5, 0.3, 0.3, 0.9])
        elif 16 <= hour < 20:
            w = np.array([0.4, 1.5, 0.6, 0.8])
        else:
            w = np.array([0.8, 0.8, 0.6, 0.6])
    return w / w.sum()


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative table behind a weighted draw.

    ``Generator.choice(len(p), p=p)`` is one ``rng.random()`` looked up
    with ``searchsorted(side="right")`` in exactly this table, which it
    rebuilds on every call; ``bisect_right(_cdf(p), rng.random())`` is
    therefore the same draw from the same stream position (see
    docs/PERFORMANCE.md, "Trace generation").
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True, slots=True)
class Zone:
    """A demand hotspot: an anchor vertex, a spread, and a type."""

    zone_id: int
    zone_type: str
    anchor: int
    member_vertices: np.ndarray


class ChengduLikeDemand:
    """Zone-structured demand model over a road network.

    Parameters
    ----------
    network:
        The road network vertices are drawn from.
    num_zones:
        Number of hotspot zones; each is assigned a type round-robin
        with residential over-represented (as in real cities).
    vertices_per_zone:
        How many nearby vertices each zone spans (demand is spread over
        them with distance-decaying weights).
    hourly_requests:
        Expected number of requests in the single busiest hour (workday
        8-9 a.m.).  The paper's busiest hour has 29,534 requests on the
        full-size network; scale this down proportionally to network
        size for tractable experiments.
    seed:
        Deterministic seed for zone placement and trip sampling.
    """

    def __init__(
        self,
        network: RoadNetwork,
        num_zones: int = 12,
        vertices_per_zone: int = 16,
        hourly_requests: int = 1200,
        seed: int = 42,
    ) -> None:
        empty = [zt for zt in ZONE_TYPES if zt not in _TYPE_CYCLE[: max(num_zones, 0)]]
        if empty:
            raise ValueError(
                f"num_zones={num_zones} leaves no {' / '.join(empty)} zone: need at "
                f"least {len(_TYPE_CYCLE)}, one round of the type cycle"
            )
        if hourly_requests < 1:
            raise ValueError("hourly_requests must be positive")
        self._network = network
        self._seed = int(seed)
        self._num_zones = int(num_zones)
        self._vertices_per_zone = int(vertices_per_zone)
        self._rng = np.random.default_rng(seed)
        self._hourly_requests = int(hourly_requests)
        self._num_taxis = NUM_TAXIS_IN_TRACE
        self._concentration = CONCENTRATION
        self._zones = self._place_zones(num_zones, vertices_per_zone)
        #: Zone ids per type, indexed like :data:`ZONE_TYPES`.
        self._type_zone_ids = [
            [z.zone_id for z in self._zones if z.zone_type == zt] for zt in ZONE_TYPES
        ]
        # Stable zone-to-zone affinities create commute corridors: trips
        # from a given zone concentrate on a few partner zones, which is
        # both realistic and what makes transition patterns learnable.
        raw = self._rng.exponential(1.0, size=(num_zones, num_zones)) ** self._concentration
        np.fill_diagonal(raw, raw.min() * 0.1)
        self._zone_affinity = raw

        # Sampling tables read per trip by generate_hour, built once.
        # Within a zone, weight decays by rank from the anchor; the
        # exponent 1.5 keeps most of a zone's demand on its few
        # innermost vertices — real pick-up heat maps are sharply peaked
        # (taxi queues, mall entrances), and this is what probabilistic
        # routing learns to aim for.  Every zone spans the same number
        # of vertices, so one table serves them all.
        span = self._zones[0].member_vertices.shape[0]
        decay = (1.0 + np.arange(span)) ** -1.5
        decay /= decay.sum()
        self._vertex_cdf = _cdf(decay)
        self._zone_members = [z.member_vertices.tolist() for z in self._zones]
        # Destination zone given (origin zone, destination type), by the
        # affinities above; a type with a single zone has no table.
        self._affinity_cdf: list[list[list[float] | None]] = []
        for origin in range(num_zones):
            tables = []
            for ids in self._type_zone_ids:
                weights = raw[origin, ids]
                tables.append(_cdf(weights / weights.sum()) if len(ids) > 1 else None)
            self._affinity_cdf.append(tables)

    # ------------------------------------------------------------------
    def _place_zones(self, num_zones: int, vertices_per_zone: int) -> list[Zone]:
        """Pick well-spread anchor vertices and grow zones around them."""
        xy = np.asarray(self._network.xy)
        n = xy.shape[0]
        vertices_per_zone = min(vertices_per_zone, n)

        # Farthest-point sampling spreads anchors across the city.
        anchors = [int(self._rng.integers(n))]
        d2 = ((xy - xy[anchors[0]]) ** 2).sum(axis=1)
        for _ in range(1, num_zones):
            anchors.append(int(np.argmax(d2)))
            d2 = np.minimum(d2, ((xy - xy[anchors[-1]]) ** 2).sum(axis=1))

        zones = []
        for zid, anchor in enumerate(anchors):
            dist = np.hypot(xy[:, 0] - xy[anchor, 0], xy[:, 1] - xy[anchor, 1])
            members = np.argsort(dist)[:vertices_per_zone]
            zones.append(
                Zone(
                    zone_id=zid,
                    zone_type=_TYPE_CYCLE[zid % len(_TYPE_CYCLE)],
                    anchor=anchor,
                    member_vertices=members,
                )
            )
        return zones

    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def zones(self) -> list[Zone]:
        """All demand zones."""
        return list(self._zones)

    # ------------------------------------------------------------------
    def generate_hour(
        self,
        day: int,
        hour: int,
        weekend: bool = False,
    ) -> list[tuple[float, int, int]]:
        """Sample ``(release_time, origin, destination)`` trips for one hour.

        Release times are absolute seconds from the start of ``day 0``.
        """
        profile = WEEKEND_HOURLY_PROFILE if weekend else WORKDAY_HOURLY_PROFILE
        lam = self._hourly_requests * profile[hour % 24]
        rng = np.random.default_rng(self._rng.integers(2**63) ^ (day * 24 + hour))
        count = int(rng.poisson(lam))
        origin_cdf = _cdf(_origin_weights(hour % 24, weekend))
        flow_cdfs = [_cdf(row) for row in _flow_matrix(hour % 24, weekend, self._concentration)]

        start = (day * 24 + hour) * 3600.0
        times = np.sort(rng.uniform(start, start + 3600.0, size=count))
        # Each weighted draw is one uniform looked up in its table.  The
        # unweighted zone picks stay ``rng.integers`` calls: those
        # consume buffered 32-bit halves of the stream (and nothing at
        # all for a single-zone type), which no uniform reproduces.
        random, integers = rng.random, rng.integers
        vertex_cdf, members = self._vertex_cdf, self._zone_members
        type_zone_ids, affinity_cdf = self._type_zone_ids, self._affinity_cdf
        trips = []
        for t in times.tolist():
            o_type = bisect_right(origin_cdf, random())
            d_type = bisect_right(flow_cdfs[o_type], random())
            ids = type_zone_ids[o_type]
            o_zone = ids[integers(len(ids))]
            ids = type_zone_ids[d_type]
            zone_cdf = affinity_cdf[o_zone][d_type]
            if zone_cdf is None:
                d_zone = ids[integers(len(ids))]
            else:
                d_zone = ids[bisect_right(zone_cdf, random())]
            origin = members[o_zone][bisect_right(vertex_cdf, random())]
            destination = members[d_zone][bisect_right(vertex_cdf, random())]
            if origin == destination:
                continue
            trips.append((t, origin, destination))
        return trips

    def generate_window(
        self,
        day: int,
        start_hour: int,
        num_hours: int,
        weekend: bool = False,
    ) -> TripDataset:
        """Generate a :class:`TripDataset` covering consecutive hours."""
        rows: list[tuple[float, int, int]] = []
        for h in range(start_hour, start_hour + num_hours):
            rows.extend(self.generate_hour(day, h, weekend=weekend))
        return self._to_dataset(rows)

    def generate_days(
        self,
        num_days: int,
        weekend_days: set[int] | None = None,
    ) -> TripDataset:
        """Generate several full days; days in ``weekend_days`` use the
        weekend profile (defaults to days 5 and 6 of each week)."""
        if weekend_days is None:
            weekend_days = {d for d in range(num_days) if d % 7 in (5, 6)}
        rows: list[tuple[float, int, int]] = []
        for day in range(num_days):
            weekend = day in weekend_days
            for hour in range(24):
                rows.extend(self.generate_hour(day, hour, weekend=weekend))
        return self._to_dataset(rows)

    def spec_dict(self) -> dict:
        """The parameters that fully determine generated traces.

        Used by the artifact store to key persisted traces: two
        generators with equal spec dicts (on equal networks) produce
        bit-identical datasets from the same call sequence.
        """
        return {
            "num_zones": self._num_zones,
            "vertices_per_zone": self._vertices_per_zone,
            "hourly_requests": self._hourly_requests,
            "num_taxis_in_trace": self._num_taxis,
            "concentration": self._concentration,
            "seed": self._seed,
        }

    def replay_days_rng(self, num_days: int, num_rows: int) -> None:
        """Advance the internal RNG exactly as ``generate_days`` would.

        The artifact store persists generated traces; a process that
        loads one skips the sampling but must leave this object's RNG in
        the *same state* a fresh generation would have, so later calls
        (e.g. ``generate_window`` for the Fig. 21 workloads) stay
        bit-identical between cold and warm processes.  ``generate_days``
        consumes exactly one scalar seed draw per generated hour (the
        per-trip sampling runs on derived generators) plus one taxi-id
        array draw of the final row count — replayed here verbatim.
        """
        for _ in range(24 * num_days):
            self._rng.integers(2**63)
        self._rng.integers(0, max(self._num_taxis, 1), size=num_rows)

    def _to_dataset(self, rows: list[tuple[float, int, int]]) -> TripDataset:
        rng = self._rng
        m = len(rows)
        taxi_ids = rng.integers(0, max(self._num_taxis, 1), size=m)
        return TripDataset(
            release_times=np.array([r[0] for r in rows], dtype=np.float64),
            origins=np.array([r[1] for r in rows], dtype=np.int64),
            destinations=np.array([r[2] for r in rows], dtype=np.int64),
            taxi_ids=np.asarray(taxi_ids, dtype=np.int64),
        )
