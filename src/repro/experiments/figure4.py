"""Figure 4: exploring the parameter space of the analytical model.

Four panels:

* (a) break-even idle interval vs leakage factor p, for three activity
  factors — decays as ~1/p, nearly alpha-independent, ~20 cycles at the
  near-term p = 0.05 point;
* (b) policy energies (normalized to E_max) vs p at mean idle interval
  10 cycles, usage factors 0.10 and 0.90;
* (c) the same at idle interval 100 cycles — MaxSleep converges to
  NoOverhead because the transition amortizes;
* (d) the worst case: idle interval 1, usage 0.50 — MaxSleep pays the
  maximum transition overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.breakeven import breakeven_sweep
from repro.core.parameters import PAPER_ALPHAS_ANALYTIC, TechnologyParameters
from repro.core.policy_energy import PolicyEnergies, UsageScenario, policy_energies
from repro.util.tables import format_series

#: The p grid of the figure (0 excluded: the model needs p > 0).
DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))

#: Panel definitions: (label, mean idle interval, usage factors).
PANELS: Tuple[Tuple[str, float, Tuple[float, ...]], ...] = (
    ("b", 10.0, (0.10, 0.90)),
    ("c", 100.0, (0.10, 0.90)),
    ("d", 1.0, (0.50,)),
)

#: Scenario length; only ratios matter, any large T gives identical curves.
SCENARIO_CYCLES = 1_000_000.0

#: Activity factor of panels b-d (the paper's f_A plots fix alpha = 0.5).
PANEL_ALPHA = 0.5


@dataclass(frozen=True)
class Figure4Result:
    """Panel (a) break-even series plus panels (b)-(d) policy energies."""

    p_grid: Tuple[float, ...]
    breakeven: List[Tuple[float, List[float]]]
    panels: Dict[str, Dict[float, List[PolicyEnergies]]]


def run(
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    alphas: Sequence[float] = PAPER_ALPHAS_ANALYTIC,
) -> Figure4Result:
    """Compute all four panels over the p grid."""
    breakeven = breakeven_sweep(alphas, p_grid)
    panels: Dict[str, Dict[float, List[PolicyEnergies]]] = {}
    for label, idle_interval, usages in PANELS:
        panel: Dict[float, List[PolicyEnergies]] = {}
        for usage in usages:
            series = []
            for p in p_grid:
                params = TechnologyParameters(leakage_factor_p=p)
                scenario = UsageScenario(
                    total_cycles=SCENARIO_CYCLES,
                    usage_factor=usage,
                    mean_idle_interval=idle_interval,
                    alpha=PANEL_ALPHA,
                )
                series.append(policy_energies(params, scenario))
            panel[usage] = series
        panels[label] = panel
    return Figure4Result(
        p_grid=tuple(p_grid), breakeven=breakeven, panels=panels
    )


def render(result: Figure4Result) -> str:
    """All four panels as aligned series tables."""
    parts = []
    breakeven_series = [
        (f"alpha={alpha}", [round(v, 2) for v in values])
        for alpha, values in result.breakeven
    ]
    parts.append(
        format_series(
            "p",
            list(result.p_grid),
            breakeven_series,
            title="Figure 4a: break-even idle interval (cycles) vs leakage factor",
        )
    )
    for label, idle_interval, usages in PANELS:
        panel = result.panels[label]
        series = []
        for usage in usages:
            energies = panel[usage]
            series.append(
                (f"AA u={usage}", [round(e.always_active, 3) for e in energies])
            )
            series.append(
                (f"MS u={usage}", [round(e.max_sleep, 3) for e in energies])
            )
            series.append(
                (f"NO u={usage}", [round(e.no_overhead, 3) for e in energies])
            )
        parts.append(
            format_series(
                "p",
                list(result.p_grid),
                series,
                title=(
                    f"Figure 4{label}: policy energy relative to 100% computation, "
                    f"idle interval = {idle_interval:g} cycles"
                ),
            )
        )
    return "\n\n".join(parts)
