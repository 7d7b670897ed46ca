"""Ablation: calibration sensitivity of the headline claims.

The catalogue constants are calibrated, not measured; this ablation
perturbs each Eq. (1) coefficient axis by +-10 % and re-checks the
paper's central shape claims.  A reproduction whose conclusions flip
inside the calibration error bars would not be worth much — this one's
do not.
"""

import pytest

from repro.experiments.common import get_chip
from repro.sensitivity import sensitivity_sweep


def _study():
    chip = get_chip("16nm")
    return sensitivity_sweep(chip, scales=(0.85, 1.15))


def test_sensitivity_ablation():
    sweep = _study()

    print("\n=== Ablation: calibration sensitivity (+-15 %) ===")
    print(f"{'axis':6s} {'scale':>6} {'TDP order':>10} {'deep dark':>10} {'temp<=TDP':>10} {'DVFS>=':>7} {'pattern':>8}")
    for (axis, scale), s in sweep.items():
        print(
            f"{axis:6s} {scale:>6.2f} "
            f"{str(s.pessimistic_darker_than_optimistic):>10} "
            f"{str(s.some_dark_silicon_at_max_vf):>10} "
            f"{str(s.temperature_never_worse):>10} "
            f"{str(s.dvfs_never_loses):>7} "
            f"{str(s.patterning_helps):>8}"
        )

    assert len(sweep) == 6
    # Directional claims survive every +-15 % single-axis perturbation.
    for key, shapes in sweep.items():
        assert shapes.temperature_never_worse, key
        assert shapes.dvfs_never_loses, key
        assert shapes.patterning_helps, key
        assert shapes.pessimistic_darker_than_optimistic, key
    # The magnitude claim (deep dark silicon at max v/f) survives the
    # dominant axis (Ceff) in both directions.
    assert sweep[("ceff", 0.85)].some_dark_silicon_at_max_vf
    assert sweep[("ceff", 1.15)].some_dark_silicon_at_max_vf
