"""Ablation/extension: the NTC minimum-energy operating point.

Completes the paper's Observation 4 with the classic NTC result the
cited Pinckney et al. work is about: sweep energy-per-instruction over
the voltage axis and locate the minimum.  Scalable applications bottom
out in the near-threshold region far below nominal; canneal's heavy
constant-power share pushes its optimum up the voltage axis.
"""

import pytest

from repro.apps.parsec import PARSEC, PARSEC_ORDER
from repro.ntc.energy_sweep import energy_voltage_sweep, minimum_energy_point
from repro.power.vf_curve import Region, VFCurve
from repro.tech.library import NODE_11NM


def _study():
    return {
        name: minimum_energy_point(PARSEC[name], NODE_11NM)
        for name in PARSEC_ORDER
    }


def test_ntc_minimum_energy_ablation():
    optima = _study()
    curve = VFCurve.for_node(NODE_11NM)

    print("\n=== Ablation: minimum-energy operating point (11 nm, 8 threads) ===")
    print(f"{'app':13s} {'Vopt [V]':>9} {'f [GHz]':>8} {'region':>7} {'E/instr [pJ]':>13}")
    for name, p in optima.items():
        print(
            f"{name:13s} {p.vdd:>9.3f} {p.frequency / 1e9:>8.2f} "
            f"{p.region.value:>7} {p.energy_per_instruction * 1e12:>13.1f}"
        )

    # Every optimum sits well below the nominal rail.
    for name, p in optima.items():
        assert p.vdd < 0.8 * curve.v_nominal, name

    # Scalable kernels bottom out in the NTC region.
    for name in ("x264", "blackscholes", "swaptions", "ferret"):
        assert optima[name].region is Region.NTC, name

    # canneal's optimum voltage exceeds the best scalers' (its P_ind
    # share punishes slow cycles).
    assert optima["canneal"].vdd > optima["swaptions"].vdd

    # The U-curve exists: sweep endpoints are costlier than the optimum.
    sweep = energy_voltage_sweep(PARSEC["x264"], NODE_11NM)
    energies = [p.energy_per_instruction for p in sweep]
    best = optima["x264"].energy_per_instruction
    assert energies[0] > best
    assert energies[-1] > best
