"""Figure 7: distribution of functional-unit idle intervals.

Across the benchmark suite (each at its Table 3 FU count), the fraction
of total run time the integer ALUs spend idle, bucketed by idle-interval
length (log2 buckets, intervals beyond 8192 accumulated at the top).
The paper reports, for the 12-cycle L2:

* ALUs are idle 46.8% of the time overall;
* nearly all idle intervals are shorter than 128 cycles;
* ~75% of idle intervals occur within the L2 access latency;
* with a 32-cycle L2, total idle time grows and mass shifts right.

Per-benchmark data is combined *as fractions* (equal weight per unit),
matching the paper's averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
    collect_benchmark_data,
)
from repro.util.intervals import log2_bucket_edges
from repro.util.tables import format_series

#: L2 hit latencies compared by the figure.
L2_LATENCIES = (12, 32)
MAX_BUCKET = 8192


@dataclass(frozen=True)
class IdleDistribution:
    """The idle-time distribution for one L2 latency."""

    l2_latency: int
    bucket_fractions: Dict[int, float]
    overall_idle_fraction: float
    #: fraction of idle *intervals* (by count) no longer than the L2
    #: latency — the paper's "75% occur within the L2 access latency".
    intervals_within_l2_latency: float
    #: fraction of idle *time* spent in those intervals.
    time_within_l2_latency: float

    @property
    def total_fraction(self) -> float:
        """Sum of all buckets == overall idle fraction (by construction)."""
        return sum(self.bucket_fractions.values())


@dataclass(frozen=True)
class Figure7Result:
    distributions: Dict[int, IdleDistribution]


def _distribution_for(
    data: List[BenchmarkEnergyData], l2_latency: int
) -> IdleDistribution:
    """Equal-weight combination of per-unit idle-time fractions."""
    edges = log2_bucket_edges(MAX_BUCKET)
    combined = {edge: 0.0 for edge in edges}
    idle_total = 0.0
    time_within_total = 0.0
    interval_count = 0
    intervals_within = 0
    units = 0
    for bench in data:
        total_cycles = bench.total_cycles
        for histogram in bench.per_fu_histograms():
            fractions = histogram.bucketed_time_fractions(total_cycles, MAX_BUCKET)
            for edge, fraction in fractions.items():
                combined[edge] += fraction
            idle_fraction = histogram.total_idle_cycles / total_cycles
            idle_total += idle_fraction
            time_within_total += (
                idle_fraction * histogram.fraction_of_idle_time_within(l2_latency)
            )
            for length, count in histogram:
                interval_count += count
                if length <= l2_latency:
                    intervals_within += count
            units += 1
    if units == 0:
        raise ValueError("no functional units in the collected data")
    overall_idle = idle_total / units
    return IdleDistribution(
        l2_latency=l2_latency,
        bucket_fractions={edge: value / units for edge, value in combined.items()},
        overall_idle_fraction=overall_idle,
        intervals_within_l2_latency=(
            intervals_within / interval_count if interval_count else 0.0
        ),
        time_within_l2_latency=(
            time_within_total / idle_total if idle_total > 0 else 0.0
        ),
    )


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    l2_latencies: Sequence[int] = L2_LATENCIES,
    benchmarks: Sequence[str] = (),
) -> Figure7Result:
    """Simulate the suite at each L2 latency and build the distributions."""
    names = list(benchmarks) if benchmarks else None
    distributions = {}
    for latency in l2_latencies:
        data = collect_benchmark_data(
            scale=scale, l2_latency=latency, benchmarks=names
        )
        distributions[latency] = _distribution_for(data, latency)
    return Figure7Result(distributions=distributions)


def render(result: Figure7Result) -> str:
    edges = log2_bucket_edges(MAX_BUCKET)
    series: List[Tuple[str, list]] = []
    notes = []
    for latency, dist in sorted(result.distributions.items()):
        series.append(
            (
                f"{latency}-cycle L2",
                [round(dist.bucket_fractions[edge], 4) for edge in edges],
            )
        )
        notes.append(
            f"\n{latency}-cycle L2: ALUs idle {dist.overall_idle_fraction:.1%} "
            f"of total time; {dist.intervals_within_l2_latency:.0%} of idle "
            f"intervals (and {dist.time_within_l2_latency:.0%} of idle time) "
            f"within the L2 latency"
        )
    table = format_series(
        "interval<=",
        edges,
        series,
        title="Figure 7: fraction of total time ALUs are idle, by interval length",
    )
    return table + "".join(notes)
