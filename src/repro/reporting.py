"""Tabular reporting for experiment results.

Each figure/table function returns an :class:`ExperimentResult`: a
named grid of series (one per scheme or setting) over an x-axis (fleet
size, parameter value, ...).  ``print`` renders the same rows the
paper's plots show, so a benchmark run reads like the evaluation
section.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """A named table: one row per series, one column per x value."""

    title: str
    x_label: str
    x_values: list
    y_label: str
    series: dict[str, list] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_series(self, name: str, values: list) -> None:
        """Attach one series; length must match the x axis."""
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(self.x_values)} x points"
            )
        self.series[name] = list(values)

    def value(self, series: str, x) -> float:
        """Single cell lookup by series name and x value."""
        return self.series[series][self.x_values.index(x)]

    def to_rows(self) -> list[list]:
        """Header row plus one row per series."""
        header = [f"{self.y_label} \\ {self.x_label}"] + [str(x) for x in self.x_values]
        rows = [header]
        for name, values in self.series.items():
            rows.append([name] + [_fmt(v) for v in values])
        return rows

    def render(self) -> str:
        """Fixed-width text table with title and notes."""
        rows = self.to_rows()
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
        lines = [self.title, "=" * len(self.title)]
        for i, row in enumerate(rows):
            lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table."""
        print()
        print(self.render())


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


#: Counters worth surfacing in the observability table's notes, with
#: human-readable labels (see docs/OBSERVABILITY.md for the vocabulary).
_HEADLINE_COUNTERS = (
    ("match.candidates_found", "candidate taxis found"),
    ("match.insertions_evaluated", "insertion instances evaluated"),
    ("match.routes_planned", "candidate routes planned"),
    ("sim.encounters_scanned", "offline encounters scanned"),
    ("sim.taxi_advances", "taxi movement notifications"),
    ("sim.stop_notifications", "with stops fired (index refreshes)"),
    ("route.fallbacks_total", "partition-filter fallbacks"),
    ("index.partition_entries", "partition index entries (end)"),
    ("index.clusters", "mobility clusters (end)"),
)


def observability_table(metrics) -> ExperimentResult | None:
    """Per-stage dispatch timing table from one run's metrics.

    One column per recorded stage (``sim.dispatch``,
    ``match.candidates``, ``match.insertion``, ``match.planning``,
    ``route.basic``, ``route.probabilistic``); rows are call counts,
    total and mean wall time.  Counters (cache hit rate, insertion
    instances, encounter scans) land in the notes.  Returns ``None``
    when the run carried no instrumentation.
    """
    if not metrics.stages:
        return None
    names = sorted(metrics.stages)
    result = ExperimentResult(
        title=f"Dispatch stage breakdown — {metrics.scheme_name}",
        x_label="stage",
        x_values=names,
        y_label="metric",
    )
    result.add_series("calls", [metrics.stages[n]["count"] for n in names])
    result.add_series(
        "total_ms", [1000.0 * metrics.stages[n]["total_s"] for n in names]
    )
    result.add_series(
        "mean_us", [1e6 * metrics.stages[n]["mean_s"] for n in names]
    )
    hits = metrics.counters.get("spe.cache_hits", 0)
    misses = metrics.counters.get("spe.cache_misses", 0)
    if hits or misses:
        result.notes.append(
            f"shortest-path cache: {hits} hits / {misses} misses "
            f"(hit rate {metrics.lazy_cache_hit_rate:.4f})"
        )
    for key, label in _HEADLINE_COUNTERS:
        if key in metrics.counters:
            result.notes.append(f"{label}: {metrics.counters[key]}")
    return result
