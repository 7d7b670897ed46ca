"""Figure 8: dark-silicon patterning and its thermal profiles.

The paper contrasts two mappings of the same workload at identical v/f
and thread counts: a contiguous packing that exceeds T_DTM with 52 active
cores, and a spread "dark silicon pattern" that stays safe with *more*
(60) active cores at *higher* total power.

The experiment finds the largest patterned workload that is thermally
safe, then maps the same number of instances contiguously and shows the
violation; it also reports the largest *contiguous* workload that is
safe, quantifying how many extra cores patterning switches on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.parsec import app_by_name
from repro.apps.workload import Workload
from repro.chip import Chip
from repro.core.constraints import TemperatureConstraint
from repro.core.estimator import map_workload
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.thermal.analysis import temperature_maps


@dataclass(frozen=True)
class PatternOutcome:
    """One mapping pattern's thermal outcome.

    Attributes:
        name: pattern label (``"contiguous"`` / ``"patterned"``).
        active_cores: cores switched on.
        total_power: chip power, W.
        peak_temperature: steady-state hottest core, degC.
        exceeds_t_dtm: True when the mapping violates the threshold.
        thermal_map: per-core steady-state temperatures on the chip grid.
    """

    name: str
    active_cores: int
    total_power: float
    peak_temperature: float
    exceeds_t_dtm: bool
    thermal_map: np.ndarray


@dataclass(frozen=True)
class Fig8Result(PayloadSerializable):
    """The Figure 8 comparison."""

    app: str
    frequency: float
    contiguous_safe: PatternOutcome
    contiguous_forced: PatternOutcome
    patterned: PatternOutcome

    @property
    def extra_active_cores(self) -> int:
        """Cores the pattern switches on beyond the safe contiguous map."""
        return self.patterned.active_cores - self.contiguous_safe.active_cores

    def rows(self):
        """(pattern, active cores, power W, peak degC, violates) rows."""
        out = []
        for o in (self.contiguous_safe, self.contiguous_forced, self.patterned):
            out.append(
                [
                    o.name,
                    o.active_cores,
                    round(o.total_power, 1),
                    round(o.peak_temperature, 1),
                    "yes" if o.exceeds_t_dtm else "no",
                ]
            )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("pattern", "active", "P [W]", "peak [degC]", "violates T_DTM"),
            self.rows(),
        )


def _realise(chip: Chip, workload: Workload, placer: Placer):
    """Realise a fixed mapping, capacity-only.

    The point of this figure is to observe the temperature a mapping
    *produces*, so no constraint filters it.
    """
    return map_workload(
        chip,
        workload,
        constraint=_Unconstrained(),
        placer=placer,
    )


def _outcome(
    chip: Chip, result, name: str, thermal_map: np.ndarray
) -> PatternOutcome:
    return PatternOutcome(
        name=name,
        active_cores=result.active_cores,
        total_power=result.total_power,
        peak_temperature=result.peak_temperature,
        exceeds_t_dtm=result.peak_temperature > chip.t_dtm + 1e-6,
        thermal_map=thermal_map,
    )


class _Unconstrained(TemperatureConstraint):
    """Admits everything; used to realise a fixed mapping."""

    def admits(self, chip: Chip, core_powers) -> bool:
        return True


def run(
    chip: Optional[Chip] = None,
    app_name: str = "x264",
    frequency: Optional[float] = None,
    threads: int = 8,
) -> Fig8Result:
    """Reproduce the Figure 8 contiguous-vs-patterned comparison."""
    chip = chip or get_chip("16nm")
    app = app_by_name(app_name)
    f = chip.node.f_max if frequency is None else frequency

    spread = NeighbourhoodSpreadPlacer()
    contiguous = ContiguousPlacer()
    offered = Workload.replicate(app, chip.n_cores // threads, threads, f)

    # Largest thermally safe workloads under each placement style.
    safe_patterned = map_workload(
        chip, offered, TemperatureConstraint(), placer=spread
    )
    safe_contiguous = map_workload(
        chip, offered, TemperatureConstraint(), placer=contiguous
    )

    n_patterned = len(safe_patterned.placed)
    realised = [
        (
            "patterned",
            _realise(chip, Workload.replicate(app, n_patterned, threads, f), spread),
        ),
        (
            "contiguous (same workload)",
            _realise(
                chip, Workload.replicate(app, n_patterned, threads, f), contiguous
            ),
        ),
        (
            "contiguous (largest safe)",
            _realise(
                chip,
                Workload.replicate(app, len(safe_contiguous.placed), threads, f),
                contiguous,
            ),
        ),
    ]
    # All three thermal maps come from one multi-RHS steady-state solve.
    rows, cols = chip.grid
    maps = temperature_maps(
        chip.thermal,
        [result.core_powers for _, result in realised],
        rows=rows,
        cols=cols,
    )
    patterned, forced, safe = (
        _outcome(chip, result, name, thermal_map)
        for (name, result), thermal_map in zip(realised, maps)
    )
    return Fig8Result(
        app=app_name,
        frequency=f,
        contiguous_safe=safe,
        contiguous_forced=forced,
        patterned=patterned,
    )


SPEC = register(
    ExperimentSpec(
        name="fig8",
        title="Contiguous vs patterned mapping thermal comparison",
        module=__name__,
        runner=run,
        params=(
            Param("app_name", "str", "x264", help="mapped application"),
            Param(
                "frequency",
                "json",
                None,
                help="operating frequency, Hz (null: the node's f_max)",
            ),
            Param("threads", "int", 8, help="threads per instance"),
        ),
        result_type=Fig8Result,
    )
)
