"""Table 1: OR8 gate characteristics at 70 nm.

Regenerates the published table from the calibrated device model and
reports the model-derived values next to the paper's, plus the derived
energy-model constants (p, k, e_ovh) Section 3 computes from this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.circuits.characterization import (
    DerivedModelParameters,
    characterize_or8_styles,
    derive_model_parameters,
)
from repro.circuits.gates import DominoStyle, GateCharacterization
from repro.circuits.library import OR8_REFERENCE, GateReferenceData
from repro.util.tables import format_table


@dataclass(frozen=True)
class Table1Result:
    """Model-derived and published rows, plus derived model constants."""

    measured: Dict[DominoStyle, GateCharacterization]
    reference: Dict[DominoStyle, GateReferenceData]
    derived: DerivedModelParameters


def run() -> Table1Result:
    """Characterize all three OR8 styles with the calibrated device model."""
    return Table1Result(
        measured=characterize_or8_styles(),
        reference=OR8_REFERENCE,
        derived=derive_model_parameters(),
    )


def render(result: Table1Result) -> str:
    """The Table 1 layout: delays and energies per circuit style."""
    headers = [
        "Circuit",
        "Eval (ps)",
        "Sleep (ps)",
        "Dynamic (fJ)",
        "LO Lkg (fJ)",
        "HI Lkg (fJ)",
        "Sleep (fJ)",
    ]

    def row(label: str, c) -> list:
        return [
            label,
            round(c.evaluation_delay_ps, 1),
            round(c.sleep_delay_ps, 1) if c.sleep_delay_ps is not None else "na",
            round(c.dynamic_energy_fj, 1),
            f"{c.leakage_lo_fj:.2g}",
            f"{c.leakage_hi_fj:.2g}",
            f"{c.sleep_overhead_fj:.2g}" if c.sleep_overhead_fj is not None else "na",
        ]

    rows = []
    for style in DominoStyle:
        rows.append(row(f"{style.value} (model)", result.measured[style]))
        rows.append(row(f"{style.value} (paper)", result.reference[style]))
    table = format_table(
        headers,
        rows,
        title="Table 1: OR8 gate characteristics (70 nm, Vdd=1.0V, 250 ps period)",
    )
    derived = result.derived
    footer = (
        f"\nDerived model constants: p = {derived.leakage_factor_p:.4f}, "
        f"k = {derived.sleep_ratio_k:.2g}, "
        f"e_ovh = {derived.sleep_overhead_ratio:.4f} "
        f"(paper: p ~ E_HI/E_D = 0.063, k ~ 5e-4, e_ovh ~ 0.0063; "
        "modeled pessimistically as k=0.001, e_ovh=0.01)"
    )
    return table + footer
