"""Ablation: spatio-temporal patterning (active-set rotation).

The paper's abstract claims "sophisticated spatio-temporal mapping
decisions result in improved thermal profiles with reduced peak
temperatures".  This check rotates a contiguous hot band across the
16 nm die and measures the peak-temperature reduction as a function of
the rotation period.
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.experiments.common import get_chip
from repro.mapping.temporal import evaluate_rotation
from repro.units import GIGA


def _study():
    chip = get_chip("16nm")
    workload = Workload.replicate(PARSEC["x264"], 6, 8, chip.node.f_max)
    outcomes = {}
    for label, period in (("fast (20 ms)", 0.02), ("medium (100 ms)", 0.1), ("slow (1 s)", 1.0)):
        outcomes[label] = evaluate_rotation(
            chip, workload, n_phases=2, period=period,
            cycles=30 if period < 0.5 else 8,
        )
    return outcomes


def test_temporal_rotation_ablation():
    outcomes = _study()

    print("\n=== Ablation: active-set rotation period (2 phases) ===")
    print(f"{'period':16s} {'static peak':>12} {'rotating peak':>14} {'reduction [K]':>14}")
    for label, r in outcomes.items():
        print(
            f"{label:16s} {r.static_peak:>12.2f} {r.rotating_peak:>14.2f} "
            f"{r.reduction:>14.2f}"
        )

    # Rotation reduces the peak at every period.
    for label, r in outcomes.items():
        assert r.reduction > 0.0, label

    # Faster rotation approaches the averaged-power limit: monotone gain.
    assert (
        outcomes["fast (20 ms)"].rotating_peak
        <= outcomes["medium (100 ms)"].rotating_peak + 1e-6
        <= outcomes["slow (1 s)"].rotating_peak + 2e-6
    )

    # The effect size is meaningful (> 0.5 K) for the fast rotation.
    assert outcomes["fast (20 ms)"].reduction > 0.5
