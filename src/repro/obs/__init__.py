"""``repro.obs`` — per-stage dispatch observability.

The paper's evaluation separates candidate searching, schedule
enumeration and route planning (Table III, Figs. 7/11); a single
end-to-end response time cannot tell which of them dominates.  This
package gives every dispatch component a common, low-overhead way to
report *stage timings* and *counters*:

==============================  =======================================
Stage                           Measured span
==============================  =======================================
``sim.dispatch``                one full dispatch call (per request)
``match.candidates``            candidate taxi searching (Eq. 3)
``match.insertion``             ``score_insertions`` over the candidates (Alg. 1)
``match.planning``              route planning for the top candidates
``route.basic``                 one basic route build (Alg. 3)
``route.probabilistic``         one probabilistic route build (Alg. 4)
==============================  =======================================

``match.planning`` *encloses* the ``route.*`` stages — timings are
inclusive, and the registry tracks the nesting stack.

Headline counters: ``spe.cache_hits`` / ``spe.cache_misses`` (shortest
path engine source-tree cache), ``match.insertions_evaluated``,
``match.candidates_found``, ``match.routes_planned``,
``sim.encounters_scanned``, ``sim.taxi_advances`` /
``sim.stop_notifications`` (index-refresh pressure),
``sim.advance_calls`` (``Taxi.advance`` calls the due index issued;
``sim.taxi_advances`` of them moved a taxi) with the end-of-run gauge
``sim.due_index_entries``, and the end-of-run index gauges
(``index.partition_entries``, ``index.clusters``).

Fault-injection runs (``repro.faults``, docs/ROBUSTNESS.md) add the
``fault.*`` family — ``fault.breakdowns``, ``fault.cancellations``,
``fault.continuations``, ``fault.redispatches``, ``fault.stranded``,
``fault.shock_delays``, ``fault.shock_checks`` (taxis the shock pass
examined) — plus ``sim.unsettled_episodes`` for episodes
force-settled at the drain-horizon cutoff.  The matching trace events
(``breakdown``, ``cancel``, ``continuation``, ``stranded``, ``shock``,
``unsettled_episode``) carry the affected taxi/request ids and the
simulation time.

Usage: the simulator owns an :class:`Instrumentation` (or a caller
passes one, optionally wrapping a :class:`JsonlTraceWriter`), attaches
it to the scheme via ``scheme.instrument(obs)`` and snapshots the
aggregates into ``SimulationMetrics.stages`` / ``.counters`` at the end
of the run.  Components default to the shared no-op :data:`NULL`
registry, so un-instrumented use stays free.  See
``docs/OBSERVABILITY.md``.
"""

from .registry import NULL, Instrumentation, NullInstrumentation, StageStats
from .trace import JsonlTraceWriter

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "StageStats",
    "JsonlTraceWriter",
    "NULL",
]
