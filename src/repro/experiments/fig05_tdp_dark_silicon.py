"""Figure 5: dark-silicon amounts under the two TDP values.

For every PARSEC application, 8-thread instances are mapped onto the
100-core 16 nm chip at each v/f level (2.8 .. 3.6 GHz) until the TDP
(220 W optimistic / 185 W pessimistic) would be exceeded; the figure's
quantities are the dark-core percentage per level and the steady-state
peak temperature at the maximum level.

The paper's headline observations asserted by the paper checks:

* power-hungry applications leave up to ~37 % (220 W) / ~46 % (185 W) of
  the chip dark at maximum v/f;
* the optimistic TDP produces thermal violations (> 80 degC) for the
  hungry applications, the pessimistic one does not;
* dark silicon shrinks as the v/f level is lowered.

Placement uses a spread (patterning) placer — consistent with the
paper's reported peak temperatures, which stay below threshold at 185 W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.chip import Chip
from repro.core.constraints import PowerBudgetConstraint
from repro.core.dark_silicon import FrequencySweepPoint, sweep_frequencies
from repro.experiments.common import FIG5_FREQUENCIES, format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.budget import PAPER_TDP_OPTIMISTIC, PAPER_TDP_PESSIMISTIC
from repro.units import GIGA


@dataclass(frozen=True)
class Fig5Result(PayloadSerializable):
    """Both panels of Figure 5.

    Attributes:
        tdp_optimistic / tdp_pessimistic: budgets used, W.
        sweeps: ``{tdp: {app: [FrequencySweepPoint, ...]}}`` keyed by the
            budget value.
    """

    tdp_optimistic: float
    tdp_pessimistic: float
    sweeps: dict

    def peak_temperatures(self, tdp: float) -> dict:
        """Per-app peak temperature at the maximum v/f level, degC."""
        return {
            app: points[-1].peak_temperature
            for app, points in self.sweeps[tdp].items()
        }

    def max_dark_fraction(self, tdp: float) -> float:
        """Deepest dark-silicon share at max v/f across apps."""
        return max(
            points[-1].dark_fraction for points in self.sweeps[tdp].values()
        )

    def rows(self):
        """(tdp, app, f GHz, dark %, peak degC, power W, GIPS) rows."""
        out = []
        for tdp, by_app in self.sweeps.items():
            for app, points in by_app.items():
                for p in points:
                    out.append(
                        [
                            int(tdp),
                            app,
                            p.frequency / GIGA,
                            round(100 * p.dark_fraction, 1),
                            round(p.peak_temperature, 1),
                            round(p.total_power, 1),
                            round(p.gips, 1),
                        ]
                    )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("TDP [W]", "app", "f [GHz]", "dark [%]", "peak [degC]", "P [W]", "GIPS"),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    app_names: Sequence[str] = PARSEC_ORDER,
    frequencies: Sequence[float] = FIG5_FREQUENCIES,
    tdp_optimistic: float = PAPER_TDP_OPTIMISTIC,
    tdp_pessimistic: float = PAPER_TDP_PESSIMISTIC,
    threads: int = 8,
) -> Fig5Result:
    """Run both Figure 5 panels."""
    chip = chip or get_chip("16nm")
    placer = NeighbourhoodSpreadPlacer()
    sweeps: dict[float, dict[str, list[FrequencySweepPoint]]] = {}
    for tdp in (tdp_optimistic, tdp_pessimistic):
        constraint = PowerBudgetConstraint(tdp)
        sweeps[tdp] = {
            name: sweep_frequencies(
                chip,
                app_by_name(name),
                frequencies,
                constraint,
                threads=threads,
                placer=placer,
            )
            for name in app_names
        }
    return Fig5Result(
        tdp_optimistic=tdp_optimistic,
        tdp_pessimistic=tdp_pessimistic,
        sweeps=sweeps,
    )


SPEC = register(
    ExperimentSpec(
        name="fig5",
        title="Dark-silicon share vs DVFS level under both TDP budgets",
        module=__name__,
        runner=run,
        params=(
            Param("app_names", "json", PARSEC_ORDER, help="applications"),
            Param(
                "frequencies",
                "json",
                FIG5_FREQUENCIES,
                help="swept v/f levels, Hz",
            ),
            Param(
                "tdp_optimistic",
                "float",
                PAPER_TDP_OPTIMISTIC,
                help="optimistic TDP, W",
            ),
            Param(
                "tdp_pessimistic",
                "float",
                PAPER_TDP_PESSIMISTIC,
                help="pessimistic TDP, W",
            ),
            Param("threads", "int", 8, help="threads per instance"),
        ),
        result_type=Fig5Result,
    )
)
