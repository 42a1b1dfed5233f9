"""Metric collection for simulation runs (Section V-A3 of the paper).

The paper evaluates four headline metrics — number of served requests,
response time, detour time, waiting time — plus candidate-set sizes
(Table III), index/memory overheads (Table IV) and the monetary effects
of the payment model (Fig. 19).  :class:`SimulationMetrics` accumulates
the raw samples during a run and exposes the aggregates the benchmarks
print.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass
class RunningStat:
    """Constant-memory mean aggregate of one sample stream.

    Raw sample lists grow with the workload; a long-lived streaming
    service (:mod:`repro.service`) caps them (``sample_cap``) and the
    derived averages fall back to these running aggregates, which cost
    two floats regardless of how many samples went through.
    """

    count: int = 0
    total: float = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the aggregate."""
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean of all samples seen (0 when empty)."""
        return self.total / self.count if self.count else 0.0


@dataclass
class SimulationMetrics:
    """Raw samples and derived aggregates for one simulation run."""

    scheme_name: str = ""
    num_requests: int = 0
    num_online: int = 0
    num_offline: int = 0

    served_online: int = 0
    served_offline: int = 0
    completed: int = 0
    #: Offline requests whose pick-up deadline passed unserved (the
    #: passenger gave up street-hailing).  Counted when a scanning taxi
    #: detects the expiry and swept up at end of run for requests no
    #: taxi ever passed, so the request balance always closes.
    expired_offline: int = 0
    #: Online requests the dispatcher could not match.
    unserved_online: int = 0
    #: Offline requests still waiting (deadline not yet reached) when
    #: the simulation ended.
    unserved_offline: int = 0

    # -- fault-injection buckets (repro.faults; docs/ROBUSTNESS.md) ----
    #: Taxis taken out of service by an injected breakdown.
    breakdowns: int = 0
    #: Matched requests withdrawn by the passenger before pick-up.
    cancelled_online: int = 0
    cancelled_offline: int = 0
    #: Requests successfully moved to another taxi after a breakdown
    #: (assigned re-dispatches and onboard continuations alike).
    reassigned: int = 0
    #: Requests whose passengers could not be recovered after a
    #: breakdown — no taxi accepted the re-dispatch/continuation.
    stranded_online: int = 0
    stranded_offline: int = 0
    #: Continuation requests issued for passengers dropped mid-trip.
    continuations: int = 0
    #: Taxis delayed by zonal travel-time shock windows.
    shock_delays: int = 0
    #: Ridesharing episodes still open when the drain horizon cut the
    #: run; they are force-settled at the cutoff so fares are conserved.
    unsettled_episodes: int = 0

    # -- streaming-service admission buckets (repro.service) -----------
    #: Requests refused at the service boundary (duplicate delivery,
    #: arrival after the committed clock, backpressure on a full
    #: in-flight queue) — they enter ``num_*`` but never reach the
    #: dispatcher, so they form their own terminal accounting bucket.
    rejected_online: int = 0
    rejected_offline: int = 0

    response_times_s: list[float] = field(default_factory=list)
    waiting_times_s: list[float] = field(default_factory=list)
    detour_times_s: list[float] = field(default_factory=list)
    candidate_counts: list[int] = field(default_factory=list)

    #: When set, the raw sample lists above stop growing at this length
    #: (the running aggregates keep counting), bounding resident memory
    #: for soak-length runs.  ``None`` (the default) retains everything,
    #: which the determinism fingerprints rely on.
    sample_cap: int | None = None
    response_stat: RunningStat = field(default_factory=RunningStat)
    waiting_stat: RunningStat = field(default_factory=RunningStat)
    detour_stat: RunningStat = field(default_factory=RunningStat)
    candidate_stat: RunningStat = field(default_factory=RunningStat)

    regular_fares: float = 0.0
    shared_fares: float = 0.0
    driver_incomes: float = 0.0
    route_fares: float = 0.0
    #: Online fare quoted to each passenger at drop-off time (Eq. 8
    #: with Eq. 7 projections for co-riders still aboard).
    quoted_fares: dict[int, float] = field(default_factory=dict)

    index_memory_bytes: int = 0
    wall_time_s: float = 0.0

    #: Per-stage dispatch timing aggregates from the observability layer
    #: (``repro.obs``): stage name -> {count, total_s, mean_s, min_s,
    #: max_s}.  See docs/OBSERVABILITY.md for the stage vocabulary.
    stages: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Observability counters and end-of-run gauges (cache hits/misses,
    #: insertion instances evaluated, encounters scanned, index sizes).
    counters: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # sample ingestion (cap-aware; the simulator routes through these)
    # ------------------------------------------------------------------
    def _add_sample(self, samples: list, stat: RunningStat, value) -> None:
        stat.add(value)
        if self.sample_cap is None or len(samples) < self.sample_cap:
            samples.append(value)

    def add_response(self, seconds: float) -> None:
        """Record one matching latency sample."""
        self._add_sample(self.response_times_s, self.response_stat, seconds)

    def add_waiting(self, seconds: float) -> None:
        """Record one pick-up waiting-time sample."""
        self._add_sample(self.waiting_times_s, self.waiting_stat, seconds)

    def add_detour(self, seconds: float) -> None:
        """Record one detour-time sample."""
        self._add_sample(self.detour_times_s, self.detour_stat, seconds)

    def add_candidates(self, count: int) -> None:
        """Record one candidate-set-size sample."""
        self._add_sample(self.candidate_counts, self.candidate_stat, count)

    @staticmethod
    def _stream_mean(samples: list, stat: RunningStat) -> float:
        """Mean over *all* samples: exact list mean while the list is
        complete (or was filled directly, bypassing the ``add_*``
        helpers), running aggregate once the cap truncated it."""
        n = len(samples)
        if n and stat.count in (0, n):
            return statistics.fmean(samples)
        return stat.mean

    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        """Total requests assigned to a taxi (online + offline)."""
        return self.served_online + self.served_offline

    @property
    def service_rate(self) -> float:
        """Fraction of all requests that were served."""
        return self.served / self.num_requests if self.num_requests else 0.0

    @property
    def unserved(self) -> int:
        """Requests neither served nor expired (failed or still waiting)."""
        return self.unserved_online + self.unserved_offline

    @property
    def cancelled(self) -> int:
        """Requests withdrawn by their passenger before pick-up."""
        return self.cancelled_online + self.cancelled_offline

    @property
    def stranded(self) -> int:
        """Requests lost to a breakdown that recovery could not re-place."""
        return self.stranded_online + self.stranded_offline

    @property
    def rejected(self) -> int:
        """Requests refused at the service admission boundary."""
        return self.rejected_online + self.rejected_offline

    @property
    def accounted_online(self) -> int:
        """Online requests in a terminal bucket (:meth:`check_balance`)."""
        return (self.served_online + self.unserved_online + self.cancelled_online
                + self.stranded_online + self.rejected_online)

    @property
    def accounted_offline(self) -> int:
        """Offline requests in a terminal bucket (:meth:`check_balance`)."""
        return (self.served_offline + self.expired_offline + self.unserved_offline
                + self.cancelled_offline + self.stranded_offline + self.rejected_offline)

    @property
    def lazy_cache_hit_rate(self) -> float:
        """Shortest-path source-tree cache hit rate (1.0 in full mode)."""
        hits = self.counters.get("spe.cache_hits", 0)
        misses = self.counters.get("spe.cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def stage_total_ms(self, name: str) -> float:
        """Total wall time spent in one dispatch stage, in milliseconds."""
        stats = self.stages.get(name)
        return 1000.0 * stats["total_s"] if stats else 0.0

    def check_balance(self) -> None:
        """Verify the request accounting identity; raise on any leak.

        Every request must end in exactly one bucket::

            served_online + unserved_online + cancelled_online
                + stranded_online + rejected_online    == num_online
            served_offline + expired_offline + unserved_offline
                + cancelled_offline + stranded_offline
                + rejected_offline                     == num_offline

        The fault buckets are zero in fault-free runs and the rejected
        buckets are zero outside the streaming service, so the identity
        reduces to the original one.  The simulator calls this at the
        end of every run so a request silently vanishing (the pre-fix
        behaviour of expired offline requests) fails loudly instead of
        skewing the service rate.
        """
        online, offline = self.accounted_online, self.accounted_offline
        if online != self.num_online or offline != self.num_offline:
            raise ValueError(
                "request accounting out of balance: "
                f"online {self.served_online}+{self.unserved_online}"
                f"+{self.cancelled_online}+{self.stranded_online}"
                f"+{self.rejected_online}"
                f"={online} vs {self.num_online}; "
                f"offline {self.served_offline}+{self.expired_offline}"
                f"+{self.unserved_offline}+{self.cancelled_offline}"
                f"+{self.stranded_offline}+{self.rejected_offline}"
                f"={offline} vs {self.num_offline}"
            )

    @property
    def avg_response_ms(self) -> float:
        """Mean matching latency per online request, in milliseconds."""
        if not self.response_times_s and not self.response_stat.count:
            return 0.0
        return 1000.0 * self._stream_mean(self.response_times_s, self.response_stat)

    @property
    def avg_waiting_min(self) -> float:
        """Mean pick-up wait of served requests, in minutes."""
        if not self.waiting_times_s and not self.waiting_stat.count:
            return 0.0
        return self._stream_mean(self.waiting_times_s, self.waiting_stat) / 60.0

    @property
    def avg_detour_min(self) -> float:
        """Mean extra on-board travel of completed trips, in minutes."""
        if not self.detour_times_s and not self.detour_stat.count:
            return 0.0
        return self._stream_mean(self.detour_times_s, self.detour_stat) / 60.0

    @property
    def avg_candidates(self) -> float:
        """Mean candidate-set size per dispatched request (Table III)."""
        if not self.candidate_counts and not self.candidate_stat.count:
            return 0.0
        return self._stream_mean(self.candidate_counts, self.candidate_stat)

    @property
    def fare_saving_pct(self) -> float:
        """Passenger fare saved versus riding alone, in percent (Fig. 19)."""
        if self.regular_fares <= 0:
            return 0.0
        return 100.0 * (1.0 - self.shared_fares / self.regular_fares)

    @property
    def driver_gain_pct(self) -> float:
        """Driver income above the metered route fare, in percent (Fig. 19)."""
        if self.route_fares <= 0:
            return 0.0
        return 100.0 * (self.driver_incomes / self.route_fares - 1.0)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """One-row summary used by the experiment harness."""
        return {
            "served": self.served,
            "served_online": self.served_online,
            "served_offline": self.served_offline,
            "expired_offline": self.expired_offline,
            "unserved": self.unserved,
            "breakdowns": self.breakdowns,
            "cancelled": self.cancelled,
            "reassigned": self.reassigned,
            "stranded": self.stranded,
            "rejected": self.rejected,
            "shock_delays": self.shock_delays,
            "unsettled_episodes": self.unsettled_episodes,
            "service_rate": round(self.service_rate, 4),
            "response_ms": round(self.avg_response_ms, 3),
            "waiting_min": round(self.avg_waiting_min, 3),
            "detour_min": round(self.avg_detour_min, 3),
            "candidates": round(self.avg_candidates, 2),
            "fare_saving_pct": round(self.fare_saving_pct, 2),
            "driver_gain_pct": round(self.driver_gain_pct, 2),
            "index_memory_kb": round(self.index_memory_bytes / 1024.0, 1),
            "stage_candidates_ms": round(self.stage_total_ms("match.candidates"), 3),
            "stage_insertion_ms": round(self.stage_total_ms("match.insertion"), 3),
            "stage_planning_ms": round(self.stage_total_ms("match.planning"), 3),
            "cache_hit_rate": round(self.lazy_cache_hit_rate, 4),
        }

    def __str__(self) -> str:  # pragma: no cover - convenience
        rows = self.summary()
        body = ", ".join(f"{k}={v}" for k, v in rows.items())
        return f"{self.scheme_name}: {body}"
