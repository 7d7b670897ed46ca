"""Ablation: boosting control period and step size.

The paper fixes the Turbo-Boost-style loop at 1 ms / 200 MHz.  This
ablation varies the control period and step and measures the temperature
ripple around the threshold: slower loops and coarser steps overshoot
more, eroding the safety margin the 80 degC threshold is supposed to
guarantee.
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import place_workload, run_boosting
from repro.experiments.common import get_chip
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.vf_curve import VFCurve
from repro.units import GIGA


def _study():
    chip = get_chip("16nm")
    workload = Workload.replicate(PARSEC["x264"], 12, 8, chip.node.f_max)
    placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
    const = best_constant_frequency(placed)
    curve = VFCurve.for_node(chip.node)

    outcomes = {}
    for label, dt, step in (
        ("1ms/200MHz (paper)", 1e-3, 0.2 * GIGA),
        ("10ms/200MHz", 1e-2, 0.2 * GIGA),
        ("50ms/200MHz", 5e-2, 0.2 * GIGA),
        ("1ms/400MHz", 1e-3, 0.4 * GIGA),
    ):
        controller = BoostingController(
            f_min=chip.node.f_min,
            f_max=curve.f_limit,
            step=step,
            threshold=chip.t_dtm,
            initial_frequency=const.frequency,
        )
        outcomes[label] = run_boosting(
            placed,
            controller,
            duration=5.0,
            dt=dt,
            record_interval=0.5,
            warm_start_frequency=const.frequency,
            power_cap=500.0,
        )
    return outcomes


def test_boosting_control_ablation():
    outcomes = _study()

    print("\n=== Ablation: boosting control period / step ===")
    print(f"{'configuration':20s} {'avg GIPS':>9} {'max T [degC]':>13} {'overshoot [K]':>14}")
    for label, r in outcomes.items():
        print(
            f"{label:20s} {r.average_gips:>9.1f} {r.max_temperature:>13.2f} "
            f"{max(0.0, r.max_temperature - 80.0):>14.2f}"
        )

    paper = outcomes["1ms/200MHz (paper)"]
    slow = outcomes["50ms/200MHz"]
    coarse = outcomes["1ms/400MHz"]

    # The paper's configuration keeps the overshoot small.
    assert paper.max_temperature - 80.0 < 1.0
    # Slower control overshoots more than the paper's loop.
    assert slow.max_temperature >= paper.max_temperature
    # A coarser step also increases the ripple.
    assert coarse.max_temperature >= paper.max_temperature - 0.05
    # All variants still deliver comparable average performance (the
    # control knob trades safety margin, not throughput).
    gips = [r.average_gips for r in outcomes.values()]
    assert max(gips) / min(gips) < 1.15
