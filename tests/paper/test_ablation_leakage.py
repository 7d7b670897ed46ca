"""Ablation: the temperature/leakage feedback loop.

Eq. (1)'s leakage term depends on temperature, which depends on power —
a positive feedback the solver closes with a fixed point.  This ablation
quantifies what ignoring the loop (evaluating leakage at a fixed
temperature) would do to the chip-level numbers: underestimating power
near the thermal limit, and with it the dark-silicon amounts.
"""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.boosting.simulation import place_workload
from repro.experiments.common import get_chip
from repro.mapping.patterns import NeighbourhoodSpreadPlacer


def _study():
    chip = get_chip("16nm")
    workload = Workload.replicate(PARSEC["x264"], 12, 8, chip.node.f_max)
    placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
    f = 2.8e9

    # Open loop at ambient: leakage evaluated at 45 degC everywhere.
    base = placed.base_powers(f)
    open_cold = base + placed.leakage_powers(
        f, np.full(chip.n_cores, chip.ambient)
    )
    peak_open_cold = chip.solver.peak_temperature(open_cold)

    # Open loop at T_DTM: the conservative budgeting convention.
    open_hot = base + placed.leakage_powers(
        f, np.full(chip.n_cores, chip.t_dtm)
    )
    peak_open_hot = chip.solver.peak_temperature(open_hot)

    # Closed loop: the consistent fixed point.
    temps, powers = chip.solver.solve_with_leakage(
        base, lambda t: placed.leakage_powers(f, t)
    )
    return {
        "open@45C": (float(open_cold.sum()), peak_open_cold),
        "open@80C": (float(open_hot.sum()), peak_open_hot),
        "closed": (float(powers.sum()), float(temps.max())),
    }


def test_leakage_feedback_ablation():
    outcomes = _study()

    print("\n=== Ablation: leakage/temperature feedback (12x x264, 2.8 GHz) ===")
    print(f"{'model':10s} {'power [W]':>10} {'peak [degC]':>12}")
    for label, (power, peak) in outcomes.items():
        print(f"{label:10s} {power:>10.1f} {peak:>12.2f}")

    p_cold, t_cold = outcomes["open@45C"]
    p_hot, t_hot = outcomes["open@80C"]
    p_closed, t_closed = outcomes["closed"]

    # Cold-leakage evaluation underestimates both power and temperature.
    assert p_cold < p_closed < p_hot
    assert t_cold < t_closed <= t_hot + 0.1
    # The worst-case convention (evaluate at T_DTM) is conservative but
    # close when the chip actually runs near the limit: within ~5 %.
    assert (p_hot - p_closed) / p_closed < 0.05
    # The feedback is a real effect: ignoring it at ambient hides at
    # least one watt of chip power here.
    assert p_closed - p_cold > 1.0
