"""Figure 13: boosting vs constant per application at 11 nm.

Every PARSEC application runs 8-thread instances — 12 and 24 of them —
on the 198-core 11 nm chip, under both schemes.  Reported per case: total
performance and total (peak) power, plus the minimum (voltage, frequency)
utilised across all cases, which the paper observes stays inside the STC
region (0.92 V / 3.0 GHz at 11 nm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.apps.workload import Workload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import TransientRun, place_workload, run_transients
from repro.chip import Chip
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import (
    ExperimentSpec,
    Param,
    duration_param,
    register,
)
from repro.io import PayloadSerializable
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.vf_curve import Region, VFCurve
from repro.units import GIGA


@dataclass(frozen=True)
class Fig13Case:
    """One (application, instance count) pair of bars.

    Attributes:
        app: application name.
        n_instances: instances mapped (12 or 24).
        constant_frequency / constant_voltage: the chosen safe level.
        constant_gips / constant_power: its steady state.
        boosting_gips / boosting_peak_power: boosting's transient average
            and peak.
        region: Figure 2 region of the constant operating point.
    """

    app: str
    n_instances: int
    constant_frequency: float
    constant_voltage: float
    constant_gips: float
    constant_power: float
    boosting_gips: float
    boosting_peak_power: float
    region: Region


@dataclass(frozen=True)
class Fig13Result(PayloadSerializable):
    """All Figure 13 cases."""

    node: str
    cases: tuple[Fig13Case, ...]

    @property
    def min_voltage(self) -> float:
        """Minimum constant-scheme voltage across cases, V."""
        return min(c.constant_voltage for c in self.cases)

    @property
    def min_frequency(self) -> float:
        """Minimum constant-scheme frequency across cases, Hz."""
        return min(c.constant_frequency for c in self.cases)

    def rows(self):
        """(app, inst, const GHz/V, const GIPS/W, boost GIPS/W) rows."""
        return [
            [
                c.app,
                c.n_instances,
                c.constant_frequency / GIGA,
                round(c.constant_voltage, 3),
                round(c.constant_gips, 1),
                round(c.constant_power, 1),
                round(c.boosting_gips, 1),
                round(c.boosting_peak_power, 1),
            ]
            for c in self.cases
        ]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            (
                "app",
                "inst",
                "const f [GHz]",
                "const V",
                "const [GIPS]",
                "const P [W]",
                "boost [GIPS]",
                "boost peak P [W]",
            ),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    app_names: Sequence[str] = PARSEC_ORDER,
    instance_counts: Sequence[int] = (12, 24),
    threads: int = 8,
    duration: float = 5.0,
    power_cap: float = 500.0,
) -> Fig13Result:
    """Run every Figure 13 case."""
    chip = chip or get_chip("11nm")
    curve = VFCurve.for_node(chip.node)
    placed_cases = []
    for name in app_names:
        app = app_by_name(name)
        for n_instances in instance_counts:
            workload = Workload.replicate(
                app, n_instances, threads, chip.node.f_max
            )
            placed = place_workload(
                chip, workload, placer=NeighbourhoodSpreadPlacer()
            )
            placed_cases.append(
                (name, n_instances, placed, best_constant_frequency(placed))
            )
    boosts = run_transients(
        [
            TransientRun(
                placed,
                duration,
                controller=BoostingController(
                    f_min=chip.node.f_min,
                    f_max=curve.f_limit,
                    step=chip.node.dvfs_step,
                    threshold=chip.t_dtm,
                    initial_frequency=const.frequency,
                ),
                record_interval=duration,
                warm_start_frequency=const.frequency,
                power_cap=power_cap,
            )
            for _, _, placed, const in placed_cases
        ]
    )
    cases = []
    for (name, n_instances, _, const), boost in zip(placed_cases, boosts):
        voltage = curve.voltage(const.frequency)
        cases.append(
            Fig13Case(
                app=name,
                n_instances=n_instances,
                constant_frequency=const.frequency,
                constant_voltage=voltage,
                constant_gips=const.gips,
                constant_power=const.total_power,
                boosting_gips=boost.average_gips,
                boosting_peak_power=boost.max_power,
                region=curve.region(voltage),
            )
        )
    return Fig13Result(node=chip.node.name, cases=tuple(cases))


SPEC = register(
    ExperimentSpec(
        name="fig13",
        title="Boosting vs constant (V, f) per application at 11 nm",
        module=__name__,
        runner=run,
        params=(
            Param("app_names", "json", PARSEC_ORDER, help="applications"),
            Param(
                "instance_counts", "json", (12, 24), help="instances per case"
            ),
            Param("threads", "int", 8, help="threads per instance"),
            duration_param(
                5.0, 2.0, "transient seconds per boosting measurement"
            ),
            Param("power_cap", "float", 500.0, help="boosting power cap, W"),
        ),
        result_type=Fig13Result,
    )
)
