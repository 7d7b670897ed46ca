"""Ablation: process variation and variability-aware dark silicon.

The DaSim work the paper builds on (Section 4) is *variability-aware*:
which cores are left dark should depend on the die's leakage map.  This
ablation draws a strongly varied die (log-normal leakage, ~3x spread),
maps the same workload with a variation-oblivious and a variation-aware
placer, and quantifies the leakage power the aware policy saves — plus
the estimation error a variation-oblivious analysis makes when its
mapping lands on leaky silicon.
"""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.core.constraints import PowerBudgetConstraint
from repro.core.estimator import map_workload
from repro.experiments.common import get_chip
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.variation import (
    VariationAwarePlacer,
    VariationMap,
    mapping_power_with_variation,
    varied_power_evaluator,
)


def _study():
    chip = get_chip("16nm")
    vmap = VariationMap.generate(chip, sigma=0.5, seed=2015)
    evaluator = varied_power_evaluator(chip, vmap)
    workload = Workload.replicate(PARSEC["x264"], 7, 8, chip.node.f_max)

    oblivious = map_workload(
        chip, workload, PowerBudgetConstraint(1e9),
        placer=ThermalSpreadPlacer(), power_evaluator=evaluator,
    )
    aware = map_workload(
        chip, workload, PowerBudgetConstraint(1e9),
        placer=VariationAwarePlacer(vmap, leakage_weight=4.0),
        power_evaluator=evaluator,
    )
    # What a variation-oblivious *analysis* of the oblivious mapping
    # believes, vs what the varied die actually draws.
    nominal_estimate = map_workload(
        chip, workload, PowerBudgetConstraint(1e9), placer=ThermalSpreadPlacer()
    )
    actual = mapping_power_with_variation(nominal_estimate, vmap)
    return chip, vmap, oblivious, aware, nominal_estimate, float(actual.sum())


def test_variation_ablation():
    chip, vmap, oblivious, aware, nominal, actual_power = _study()

    print("\n=== Ablation: process variation (16 nm, 7x x264, sigma=0.5) ===")
    print(f"die leakage spread:        {vmap.spread:.2f}x")
    print(f"oblivious placer power:    {oblivious.total_power:.2f} W")
    print(f"aware placer power:        {aware.total_power:.2f} W")
    print(f"nominal analysis power:    {nominal.total_power:.2f} W")
    print(f"actual power on this die:  {actual_power:.2f} W")

    # The generated die shows a realistic leakage spread.
    assert 2.0 <= vmap.spread <= 6.0

    # Same workload, same core count — the aware placer draws less power.
    assert aware.active_cores == oblivious.active_cores
    assert aware.total_power < oblivious.total_power

    # A nominal (variation-free) analysis misestimates the varied die's
    # power; the error is visible but bounded (leakage is a single-digit
    # share of Eq. (1) at this calibration).
    error = abs(actual_power - nominal.total_power) / nominal.total_power
    assert 0.0 < error < 0.10

    # Both mappings remain thermally representable.
    assert aware.peak_temperature < 85.0
    assert oblivious.peak_temperature < 85.0
