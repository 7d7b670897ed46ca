"""Compact thermal RC simulation (HotSpot-equivalent substrate).

The paper obtains core temperatures from HotSpot configured as listed in
Section 2.1.  This package reimplements that methodology: a block-level
RC network over a four-layer package stack (silicon die, thermal
interface material, copper heat spreader, copper heat sink with a
convection path to ambient), with

* :class:`repro.thermal.config.ThermalConfig` — the paper's exact
  geometry/material parameters;
* :mod:`repro.thermal.builder` — floorplan -> RC network construction;
* :class:`repro.thermal.model.ThermalModel` — conductance matrix,
  capacitances, and the core-to-core influence matrix ``B = A^-1``;
* :class:`repro.thermal.steady_state.SteadyStateSolver` — ``A dT = P``
  with optional temperature-dependent-leakage fixed point;
* :class:`repro.thermal.transient.TransientSimulator` — backward-Euler
  integration for boosting experiments (Figure 11);
* :func:`repro.thermal.analysis.temperature_maps` — steady core
  temperatures laid out as the floorplan grid (Figure 8's thermal
  profiles), one multi-RHS solve for a batch of power vectors.

The analytic bounds and the mesh-convergence study that stand in for
HotSpot's validation live with their checks in
``tests/test_thermal_verification.py``.
"""

from repro.thermal.config import ThermalConfig, PAPER_THERMAL_CONFIG
from repro.thermal.rc_network import RCNetwork, NodeSpec
from repro.thermal.model import ThermalModel
from repro.thermal.builder import as_layer_stack, build_thermal_model
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSimulator, TransientResult
from repro.thermal.analysis import temperature_maps

__all__ = [
    "ThermalConfig",
    "PAPER_THERMAL_CONFIG",
    "RCNetwork",
    "NodeSpec",
    "ThermalModel",
    "as_layer_stack",
    "build_thermal_model",
    "SteadyStateSolver",
    "TransientSimulator",
    "TransientResult",
    "temperature_maps",
]
