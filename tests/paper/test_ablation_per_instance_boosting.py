"""Ablation: chip-wide vs per-instance boosting granularity.

The paper models Intel-style chip-wide boosting (one frequency for all
active cores).  Per-instance control is the natural refinement: each
instance reacts to *its own* hottest core, so instances sitting in cool
die regions keep boosting while central ones back off.  Expected shape:
higher total performance at the same electrical cap, with a slightly
larger thermal overshoot (each controller is blind to the heat its
neighbours are still adding).
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.boosting.constant import best_constant_frequency
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    place_workload,
    run_boosting,
    run_per_instance_boosting,
)
from repro.experiments.common import get_chip
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.vf_curve import VFCurve


def _study():
    chip = get_chip("16nm")
    workload = Workload.replicate(PARSEC["x264"], 12, 8, chip.node.f_max)
    placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
    const = best_constant_frequency(placed)
    curve = VFCurve.for_node(chip.node)

    def controller():
        return BoostingController(
            f_min=chip.node.f_min,
            f_max=curve.f_limit,
            step=chip.node.dvfs_step,
            threshold=chip.t_dtm,
            initial_frequency=const.frequency,
        )

    chip_wide = run_boosting(
        placed, controller(), duration=4.0,
        warm_start_frequency=const.frequency, power_cap=500.0,
    )
    per_instance = run_per_instance_boosting(
        placed,
        [controller() for _ in range(placed.n_instances)],
        duration=4.0,
        warm_start_frequencies=[const.frequency] * placed.n_instances,
        power_cap=500.0,
    )
    return const, chip_wide, per_instance


def test_per_instance_boosting_ablation():
    const, chip_wide, per_instance = _study()

    print("\n=== Ablation: boosting granularity (12x x264, 16 nm) ===")
    print(f"{'scheme':14s} {'avg GIPS':>9} {'max T [degC]':>13} {'max P [W]':>10}")
    print(f"{'constant':14s} {const.gips:>9.1f} {const.peak_temperature:>13.2f} {const.total_power:>10.1f}")
    for name, r in (("chip-wide", chip_wide), ("per-instance", per_instance)):
        print(f"{name:14s} {r.average_gips:>9.1f} {r.max_temperature:>13.2f} {r.max_power:>10.1f}")

    # Finer granularity extracts more performance under the same cap.
    assert per_instance.average_gips > chip_wide.average_gips
    # Both respect the 500 W electrical constraint.
    assert chip_wide.max_power <= 505.0
    assert per_instance.max_power <= 505.0
    # Per-instance control overshoots the threshold slightly more (each
    # controller is blind to its neighbours' heating), but stays within
    # a small band.
    assert per_instance.max_temperature >= chip_wide.max_temperature - 0.1
    assert per_instance.max_temperature <= 80.0 + 2.5
