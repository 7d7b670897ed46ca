"""Extension experiment: calibration sensitivity of the headline claims.

Tabulates :func:`repro.sensitivity.sensitivity_sweep` — which of the
paper's central shape claims survive single-axis perturbations of the
calibrated Eq. (1) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chip import Chip
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.sensitivity import sensitivity_sweep


@dataclass(frozen=True)
class SensitivityResult(PayloadSerializable):
    """The sweep's outcomes, keyed by (axis, scale)."""

    outcomes: dict

    def rows(self):
        """(axis, scale, five shape booleans, all) rows."""
        out = []
        for (axis, scale), s in self.outcomes.items():
            out.append(
                [
                    axis,
                    scale,
                    str(s.pessimistic_darker_than_optimistic),
                    str(s.some_dark_silicon_at_max_vf),
                    str(s.temperature_never_worse),
                    str(s.dvfs_never_loses),
                    str(s.patterning_helps),
                    str(s.all_hold),
                ]
            )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            (
                "axis",
                "scale",
                "TDP order",
                "deep dark",
                "temp<=TDP",
                "DVFS wins",
                "patterning",
                "all hold",
            ),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    scales: Sequence[float] = (0.9, 1.1),
) -> SensitivityResult:
    """Run the single-axis sensitivity sweep."""
    chip = chip or get_chip("16nm")
    return SensitivityResult(outcomes=sensitivity_sweep(chip, scales=scales))


SPEC = register(
    ExperimentSpec(
        name="sensitivity",
        title="Headline-shape sensitivity to calibration perturbations",
        module=__name__,
        runner=run,
        params=(
            Param(
                "scales",
                "json",
                (0.9, 1.1),
                help="per-axis perturbation factors",
            ),
        ),
        result_type=SensitivityResult,
    )
)
