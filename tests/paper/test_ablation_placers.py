"""Ablation: how much does the placement pattern matter?

Sweeps all four placers on the Figure 8 setting (x264 at max v/f under
the temperature constraint, 16 nm) and quantifies the active-core count
each achieves.  The expected ordering: any spreading strategy beats the
contiguous baseline, and the thermal-influence-aware placer is at least
as good as the geometric heuristics.
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.core.constraints import TemperatureConstraint
from repro.core.dark_silicon import estimate_dark_silicon
from repro.experiments.common import get_chip
from repro.mapping.contiguous import ContiguousPlacer
from repro.mapping.patterns import (
    CheckerboardPlacer,
    NeighbourhoodSpreadPlacer,
    ThermalSpreadPlacer,
)

PLACERS = {
    "contiguous": ContiguousPlacer(),
    "checkerboard": CheckerboardPlacer(),
    "neighbourhood": NeighbourhoodSpreadPlacer(),
    "thermal": ThermalSpreadPlacer(),
}


def _sweep():
    chip = get_chip("16nm")
    app = PARSEC["x264"]
    results = {}
    for name, placer in PLACERS.items():
        r = estimate_dark_silicon(
            chip, app, chip.node.f_max, TemperatureConstraint(), placer=placer
        )
        results[name] = r
    return results


def test_placer_ablation():
    results = _sweep()

    print("\n=== Ablation: placement pattern (x264, 16 nm, T_DTM) ===")
    print(f"{'placer':14s} {'active':>7} {'power [W]':>10} {'peak [degC]':>12}")
    for name, r in results.items():
        print(
            f"{name:14s} {r.active_cores:>7d} {r.total_power:>10.1f} "
            f"{r.peak_temperature:>12.1f}"
        )

    # Every mapping is thermally safe by construction.
    for name, r in results.items():
        assert r.peak_temperature <= 80.0 + 1e-6, name

    # All spreading strategies beat contiguous packing.
    contiguous = results["contiguous"].active_cores
    for name in ("checkerboard", "neighbourhood", "thermal"):
        assert results[name].active_cores > contiguous, name

    # The influence-matrix placer is at least as good as the geometric
    # heuristics (it optimises the actual objective).
    best_geometric = max(
        results["checkerboard"].active_cores,
        results["neighbourhood"].active_cores,
    )
    assert results["thermal"].active_cores >= best_geometric - 8
