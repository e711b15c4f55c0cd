"""Figure 3: uncontrolled idle versus sleep mode for the generic FU.

Energy spent over an idle interval by the 500-gate FU circuit, comparing
clock gating alone against entering the sleep mode, at activity factors
0.1, 0.5, and 0.9. The paper's headline: the curves cross at ~17 cycles
for alpha = 0.1, and the break-even point is relatively insensitive to
the activity factor because both the transition cost and the idle leakage
scale with (1 - alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.circuits.functional_unit import (
    FunctionalUnitCircuit,
    IdleEnergyCurves,
    compute_idle_energy_curves,
)
from repro.circuits.library import calibrated_device_parameters
from repro.core.parameters import PAPER_ALPHAS_ANALYTIC
from repro.util.tables import format_series

#: The interval range plotted by Figure 3.
MAX_IDLE_CYCLES = 25


@dataclass(frozen=True)
class Figure3Result:
    """One :class:`IdleEnergyCurves` per activity factor."""

    curves: Dict[float, IdleEnergyCurves]
    breakeven_cycles: Dict[float, Optional[int]]


def run(
    alphas: Sequence[float] = PAPER_ALPHAS_ANALYTIC,
    max_idle_cycles: int = MAX_IDLE_CYCLES,
) -> Figure3Result:
    """Sweep idle-interval length for each activity factor."""
    circuit = FunctionalUnitCircuit()
    params = calibrated_device_parameters()
    curves = {}
    breakevens: Dict[float, Optional[int]] = {}
    for alpha in alphas:
        curve = compute_idle_energy_curves(
            alpha, max_idle_cycles=max_idle_cycles, circuit=circuit, params=params
        )
        curves[alpha] = curve
        breakevens[alpha] = curve.crossover_cycle()
    return Figure3Result(curves=curves, breakeven_cycles=breakevens)


def render(result: Figure3Result) -> str:
    """Energy (pJ) vs idle interval, per mode and activity factor."""
    alphas = sorted(result.curves)
    intervals = result.curves[alphas[0]].idle_cycles
    series: list = []
    for alpha in alphas:
        curve = result.curves[alpha]
        series.append((f"idle a={alpha}", [round(v, 2) for v in curve.uncontrolled_pj]))
        series.append((f"sleep a={alpha}", [round(v, 2) for v in curve.sleep_pj]))
    table = format_series(
        "cycles",
        list(intervals),
        series,
        title="Figure 3: uncontrolled idle vs sleep mode energy (pJ), 500-gate FU",
    )
    notes = "".join(
        f"\nbreak-even at alpha={alpha}: "
        + (f"{be} cycles" if be is not None else "beyond plotted range")
        for alpha, be in sorted(result.breakeven_cycles.items())
    )
    return table + notes
