"""Figure 8: per-benchmark policy energies at p = 0.05 and p = 0.50.

For every benchmark (at its Table 3 FU count), the total integer-FU
energy of MaxSleep, GradualSleep, AlwaysActive, and NoOverhead,
normalized to the 100%-computation baseline E_max — the paper's primary
empirical result. Evaluated at alpha = 0.50 with 0.25/0.75 whiskers.

The paper's headline numbers, which :func:`summarize` recomputes:

* p = 0.05 — MaxSleep uses ~8.3% *more* energy than AlwaysActive on
  average; AlwaysActive is within ~5.3% of NoOverhead; GradualSleep is
  within ~2% of AlwaysActive.
* p = 0.50 — MaxSleep saves ~19.2% vs AlwaysActive, capturing ~70% of
  NoOverhead's potential; GradualSleep ~= MaxSleep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.parameters import PAPER_ALPHAS_EMPIRICAL
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    collect_benchmark_data,
)
from repro.experiments.sweep import SweepGrid, evaluate_grid
from repro.util.summaries import arithmetic_mean
from repro.util.tables import format_table

#: The two technology points of Figures 8a and 8b.
P_VALUES = (0.05, 0.50)
PRIMARY_ALPHA = 0.50

#: Canonical policy-name keys (independent of GradualSleep's slice label).
MAX_SLEEP = "MaxSleep"
GRADUAL = "GradualSleep"
ALWAYS_ACTIVE = "AlwaysActive"
NO_OVERHEAD = "NoOverhead"


@dataclass(frozen=True)
class Figure8Result:
    """energies[p][alpha][benchmark][policy] -> normalized energy."""

    energies: Dict[float, Dict[float, Dict[str, Dict[str, float]]]]
    fu_counts: Dict[str, int]


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    p_values: Sequence[float] = P_VALUES,
    alphas: Sequence[float] = PAPER_ALPHAS_EMPIRICAL,
    benchmarks: Sequence[str] = (),
) -> Figure8Result:
    """Evaluate the four policies per benchmark, technology, and alpha.

    A thin view over the sweep engine: the figure's 2 x 3 (technology x
    alpha) grid is one :func:`repro.experiments.sweep.evaluate_grid`
    pass over the cached simulation results.
    """
    names = list(benchmarks) if benchmarks else None
    data = collect_benchmark_data(scale=scale, benchmarks=names)
    grid = SweepGrid(
        p_values=tuple(p_values),
        alphas=tuple(alphas),
        policies=(MAX_SLEEP, GRADUAL, ALWAYS_ACTIVE, NO_OVERHEAD),
    )
    swept = evaluate_grid(data, grid)
    energies: Dict[float, Dict[float, Dict[str, Dict[str, float]]]] = {
        p: {
            alpha: {
                bench.name: {
                    policy: swept.cell(p, alpha, bench.name, policy).normalized_energy
                    for policy in grid.policies
                }
                for bench in data
            }
            for alpha in alphas
        }
        for p in p_values
    }
    return Figure8Result(
        energies=energies,
        fu_counts={bench.name: bench.num_fus for bench in data},
    )


@dataclass(frozen=True)
class Figure8Summary:
    """The paper's headline comparisons for one technology point."""

    p: float
    max_sleep_vs_always_active: float
    always_active_vs_no_overhead: float
    gradual_vs_always_active: float
    gradual_vs_max_sleep: float
    max_sleep_fraction_of_potential: float


def summarize(result: Figure8Result, p: float, alpha: float = PRIMARY_ALPHA) -> Figure8Summary:
    """Suite-average relative comparisons at one technology point."""
    per_bench = result.energies[p][alpha]
    ms = arithmetic_mean([e[MAX_SLEEP] for e in per_bench.values()])
    gs = arithmetic_mean([e[GRADUAL] for e in per_bench.values()])
    aa = arithmetic_mean([e[ALWAYS_ACTIVE] for e in per_bench.values()])
    no = arithmetic_mean([e[NO_OVERHEAD] for e in per_bench.values()])
    saved_by_ms = aa - ms
    potential = aa - no
    return Figure8Summary(
        p=p,
        max_sleep_vs_always_active=(ms - aa) / aa,
        always_active_vs_no_overhead=(aa - no) / no,
        gradual_vs_always_active=(gs - aa) / aa,
        gradual_vs_max_sleep=(gs - ms) / ms,
        max_sleep_fraction_of_potential=(
            saved_by_ms / potential if potential > 0 else 0.0
        ),
    )


def render(result: Figure8Result, alpha: float = PRIMARY_ALPHA) -> str:
    parts = []
    alphas = sorted(next(iter(result.energies.values())).keys())
    low, high = min(alphas), max(alphas)
    for p, per_alpha in sorted(result.energies.items()):
        per_bench = per_alpha[alpha]
        headers = ["App (FUs)", "MaxSleep", "GradualSleep", "AlwaysActive",
                   "NoOverhead"]
        rows = []
        for name in sorted(per_bench):
            e = per_bench[name]
            rows.append([
                f"{name} ({result.fu_counts[name]})",
                round(e[MAX_SLEEP], 3),
                round(e[GRADUAL], 3),
                round(e[ALWAYS_ACTIVE], 3),
                round(e[NO_OVERHEAD], 3),
            ])
        rows.append([
            "Average",
            round(arithmetic_mean([per_bench[n][MAX_SLEEP] for n in per_bench]), 3),
            round(arithmetic_mean([per_bench[n][GRADUAL] for n in per_bench]), 3),
            round(arithmetic_mean([per_bench[n][ALWAYS_ACTIVE] for n in per_bench]), 3),
            round(arithmetic_mean([per_bench[n][NO_OVERHEAD] for n in per_bench]), 3),
        ])
        parts.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Figure 8 (p={p}): energy normalized to 100% activity, "
                    f"alpha={alpha} (whisker range alpha={low}..{high})"
                ),
            )
        )
        s = summarize(result, p, alpha)
        parts.append(
            f"  MaxSleep vs AlwaysActive: {s.max_sleep_vs_always_active:+.1%}; "
            f"AlwaysActive vs NoOverhead: {s.always_active_vs_no_overhead:+.1%}; "
            f"GradualSleep vs AlwaysActive: {s.gradual_vs_always_active:+.1%}; "
            f"MaxSleep captures {s.max_sleep_fraction_of_potential:.0%} of potential"
        )
    return "\n\n".join(parts)
