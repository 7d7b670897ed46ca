"""Figure 12: performance and power vs active-core count (x264, 16 nm).

One new 8-thread x264 instance per 8 active cores, from 8 to 100 cores.
For each count the constant scheme reports its leakage-consistent steady
state at the best safe DVFS level; boosting reports the average of a
short closed-loop transient.  The paper's shape: boosting's performance
is only slightly higher everywhere, while its (peak) power grows far
beyond the constant scheme's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.parsec import app_by_name
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
from repro.power.vf_curve import VFCurve
from repro.units import GIGA


@dataclass(frozen=True)
class Fig12Point:
    """One active-core count's pair of measurements.

    Attributes:
        active_cores: cores running (8 per instance).
        constant_gips / constant_power: steady state of the best safe
            constant level.
        boosting_gips / boosting_peak_power: transient average GIPS and
            maximum instantaneous power of the boosting run.
    """

    active_cores: int
    constant_frequency: float
    constant_gips: float
    constant_power: float
    boosting_gips: float
    boosting_peak_power: float


@dataclass(frozen=True)
class Fig12Result(PayloadSerializable):
    """The Figure 12 sweep."""

    app: str
    points: tuple[Fig12Point, ...]

    def rows(self):
        """(cores, const GHz, const GIPS, const W, boost GIPS, boost W)."""
        return [
            [
                p.active_cores,
                p.constant_frequency / GIGA,
                round(p.constant_gips, 1),
                round(p.constant_power, 1),
                round(p.boosting_gips, 1),
                round(p.boosting_peak_power, 1),
            ]
            for p in self.points
        ]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            (
                "cores",
                "const f [GHz]",
                "const [GIPS]",
                "const P [W]",
                "boost [GIPS]",
                "boost peak P [W]",
            ),
            self.rows(),
        )


def run(
    chip: Optional[Chip] = None,
    app_name: str = "x264",
    core_counts: Optional[Sequence[int]] = None,
    threads: int = 8,
    duration: float = 5.0,
    power_cap: float = 500.0,
    boost_duration: Optional[float] = None,
) -> Fig12Result:
    """Run the Figure 12 sweep.

    Args:
        chip: target chip (default: 16 nm, 100 cores).
        app_name: the swept application (paper: x264).
        core_counts: active-core counts; defaults to 8, 16, ..., 96.
        threads: threads per instance.
        duration: transient seconds per boosting measurement.
        power_cap: electrical constraint for boosting, W.
        boost_duration: deprecated alias of ``duration`` (kept for
            backwards compatibility; wins when given).
    """
    if boost_duration is not None:
        duration = boost_duration
    chip = chip or get_chip("16nm")
    app = app_by_name(app_name)
    if core_counts is None:
        core_counts = range(8, chip.n_cores + 1, 8)
    curve = VFCurve.for_node(chip.node)

    cases = []
    for cores in core_counts:
        n_instances = cores // threads
        if n_instances < 1:
            continue
        workload = Workload.replicate(app, n_instances, threads, chip.node.f_max)
        placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
        cases.append((placed, best_constant_frequency(placed)))
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
            for placed, const in cases
        ]
    )
    points = [
        Fig12Point(
            active_cores=placed.active_cores,
            constant_frequency=const.frequency,
            constant_gips=const.gips,
            constant_power=const.total_power,
            boosting_gips=boost.average_gips,
            boosting_peak_power=boost.max_power,
        )
        for (placed, const), boost in zip(cases, boosts)
    ]
    return Fig12Result(app=app_name, points=tuple(points))


SPEC = register(
    ExperimentSpec(
        name="fig12",
        title="Boosting vs constant frequency across active-core counts",
        module=__name__,
        runner=run,
        params=(
            Param("app_name", "str", "x264", help="swept application"),
            Param(
                "core_counts",
                "json",
                None,
                help="active-core counts (null: 8,16,..,n_cores)",
            ),
            Param("threads", "int", 8, help="threads per instance"),
            duration_param(
                5.0,
                2.0,
                "transient seconds per boosting measurement",
                aliases=("boost_duration",),
            ),
            Param("power_cap", "float", 500.0, help="boosting power cap, W"),
        ),
        result_type=Fig12Result,
    )
)
