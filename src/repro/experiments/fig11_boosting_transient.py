"""Figure 11: transient boosting vs constant frequency (12x x264, 16 nm).

Twelve 8-thread x264 instances (96 active cores) run for 100 seconds.
The constant scheme sits at the highest thermally safe DVFS level, a few
degrees below the threshold; boosting oscillates around the 80 degC
threshold and achieves a slightly higher average performance (the paper
measures 258.1 vs 245.3 GIPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.parsec import app_by_name
from repro.apps.workload import Workload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    BoostingRunResult,
    TransientRun,
    place_workload,
    run_transients,
)
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
from repro.power.vf_curve import VFCurve


@dataclass(frozen=True)
class Fig11Result(PayloadSerializable):
    """Both transient traces and their aggregates."""

    app: str
    n_instances: int
    active_cores: int
    constant_frequency: float
    boosting: BoostingRunResult
    constant: BoostingRunResult

    @property
    def boosting_gain(self) -> float:
        """Average-GIPS gain of boosting over constant frequency."""
        return self.boosting.average_gips / self.constant.average_gips - 1.0

    def rows(self):
        """(scheme, avg GIPS, max temp, max power W, energy J) rows."""
        return [
            [
                "boosting",
                round(self.boosting.average_gips, 1),
                round(self.boosting.max_temperature, 2),
                round(self.boosting.max_power, 1),
                round(self.boosting.energy, 1),
            ],
            [
                "constant",
                round(self.constant.average_gips, 1),
                round(self.constant.max_temperature, 2),
                round(self.constant.max_power, 1),
                round(self.constant.energy, 1),
            ],
        ]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("scheme", "avg [GIPS]", "max T [degC]", "max P [W]", "energy [J]"),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    app_name: str = "x264",
    n_instances: int = 12,
    threads: int = 8,
    duration: float = 100.0,
    power_cap: float = 500.0,
    record_interval: float = 0.5,
) -> Fig11Result:
    """Run the Figure 11 transient comparison.

    Args:
        chip: target chip (default: the 16 nm 100-core chip).
        app_name: workload application (paper: x264, the H.264 encoder).
        n_instances: instances (paper: 12).
        threads: threads per instance (paper: 8).
        duration: simulated seconds (paper: 100; smaller values keep the
            benchmark fast while preserving the oscillation shape).
        power_cap: electrical power constraint for boosting, W.
        record_interval: trace sampling, s.
    """
    chip = chip or get_chip("16nm")
    app = app_by_name(app_name)
    workload = Workload.replicate(app, n_instances, threads, chip.node.f_max)
    placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())

    const = best_constant_frequency(placed)
    curve = VFCurve.for_node(chip.node)
    controller = BoostingController(
        f_min=chip.node.f_min,
        f_max=curve.f_limit,
        step=chip.node.dvfs_step,
        threshold=chip.t_dtm,
        initial_frequency=const.frequency,
    )
    constant_trace, boosting_trace = run_transients(
        [
            TransientRun(
                placed,
                duration,
                frequency=const.frequency,
                record_interval=record_interval,
                warm_start_frequency=const.frequency,
            ),
            TransientRun(
                placed,
                duration,
                controller=controller,
                record_interval=record_interval,
                warm_start_frequency=const.frequency,
                power_cap=power_cap,
            ),
        ]
    )
    return Fig11Result(
        app=app_name,
        n_instances=n_instances,
        active_cores=placed.active_cores,
        constant_frequency=const.frequency,
        boosting=boosting_trace,
        constant=constant_trace,
    )


SPEC = register(
    ExperimentSpec(
        name="fig11",
        title="Transient boosting vs best safe constant frequency",
        module=__name__,
        runner=run,
        params=(
            Param("app_name", "str", "x264", help="workload application"),
            Param("n_instances", "int", 12, help="instances mapped"),
            Param("threads", "int", 8, help="threads per instance"),
            duration_param(
                100.0, 2.0, "simulated transient seconds (paper: 100)"
            ),
            Param("power_cap", "float", 500.0, help="boosting power cap, W"),
            Param(
                "record_interval", "float", 0.5, help="trace sampling, s"
            ),
        ),
        result_type=Fig11Result,
    )
)
