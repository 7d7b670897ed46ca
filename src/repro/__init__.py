"""repro — a reproduction of "New Trends in Dark Silicon" (DAC 2015).

The library rebuilds the paper's full tool flow (Figure 1) in pure
Python: an analytic gem5/McPAT substitute (application + power models), a
HotSpot-equivalent compact thermal RC simulator, ITRS technology scaling,
and on top of them the paper's analyses — dark-silicon estimation under
power-budget vs temperature constraints, DVFS trade-offs, dark-silicon
patterning, DsRem, Thermal Safe Power (TSP), and boosting vs
constant-frequency execution in the STC and NTC regions.

Quick start::

    from repro import Chip, NODE_16NM, PARSEC
    from repro import TemperatureConstraint, estimate_dark_silicon

    chip = Chip.for_node(NODE_16NM)                # 100 cores, 16 nm
    result = estimate_dark_silicon(
        chip, PARSEC["x264"], frequency=3.6e9,
        constraint=TemperatureConstraint(),
    )
    print(f"dark silicon: {result.dark_fraction:.0%}, "
          f"peak {result.peak_temperature:.1f} degC")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.chip import Chip
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleError,
    MappingError,
    ReproError,
)
from repro.tech import (
    ALL_NODES,
    EVALUATED_NODES,
    NODE_8NM,
    NODE_11NM,
    NODE_16NM,
    NODE_22NM,
    TechNode,
    node_by_name,
)
from repro.apps import PARSEC, PARSEC_ORDER, AppProfile, ApplicationInstance, Workload
from repro.power import CorePowerModel, LeakageModel, Region, VFCurve
from repro.thermal import (
    PAPER_THERMAL_CONFIG,
    SteadyStateSolver,
    ThermalConfig,
    ThermalModel,
    TransientSimulator,
    build_thermal_model,
)
from repro.core import (
    CompositeConstraint,
    Constraint,
    MappingResult,
    PowerBudgetConstraint,
    TemperatureConstraint,
    ThermalSafePower,
    best_homogeneous_configuration,
    compare_tdp_vs_temperature,
    estimate_dark_silicon,
    map_workload,
    sweep_frequencies,
)
from repro.mapping import (
    CheckerboardPlacer,
    ContiguousPlacer,
    NeighbourhoodSpreadPlacer,
    ThermalSpreadPlacer,
    ds_rem,
    tdp_map,
)
from repro.boosting import (
    BoostingController,
    best_constant_frequency,
    place_workload,
    run_boosting,
    run_constant,
)
from repro.ntc import iso_performance_comparison
from repro.ntc.energy_sweep import energy_voltage_sweep, minimum_energy_point
from repro.dtm import GateHottest, ThrottleHottest, enforce as enforce_dtm
from repro.mapping.temporal import evaluate_rotation
from repro.io import result_to_csv

__version__ = "1.0.0"

__all__ = [
    "Chip",
    "ReproError",
    "ConfigurationError",
    "ConvergenceError",
    "InfeasibleError",
    "MappingError",
    "TechNode",
    "node_by_name",
    "ALL_NODES",
    "EVALUATED_NODES",
    "NODE_22NM",
    "NODE_16NM",
    "NODE_11NM",
    "NODE_8NM",
    "AppProfile",
    "ApplicationInstance",
    "Workload",
    "PARSEC",
    "PARSEC_ORDER",
    "VFCurve",
    "Region",
    "LeakageModel",
    "CorePowerModel",
    "ThermalConfig",
    "PAPER_THERMAL_CONFIG",
    "ThermalModel",
    "build_thermal_model",
    "SteadyStateSolver",
    "TransientSimulator",
    "Constraint",
    "PowerBudgetConstraint",
    "TemperatureConstraint",
    "CompositeConstraint",
    "MappingResult",
    "map_workload",
    "ThermalSafePower",
    "estimate_dark_silicon",
    "sweep_frequencies",
    "compare_tdp_vs_temperature",
    "best_homogeneous_configuration",
    "ContiguousPlacer",
    "CheckerboardPlacer",
    "NeighbourhoodSpreadPlacer",
    "ThermalSpreadPlacer",
    "tdp_map",
    "ds_rem",
    "BoostingController",
    "best_constant_frequency",
    "place_workload",
    "run_boosting",
    "run_constant",
    "iso_performance_comparison",
    "energy_voltage_sweep",
    "minimum_energy_point",
    "GateHottest",
    "ThrottleHottest",
    "enforce_dtm",
    "evaluate_rotation",
    "result_to_csv",
    "__version__",
]
