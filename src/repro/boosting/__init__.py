"""Boosting vs constant-frequency execution (paper Section 6).

* :class:`repro.boosting.controller.BoostingController` — the closed-loop
  Turbo-Boost-style controller the paper models after Intel's: every 1 ms
  control period the chip-wide frequency moves one 200 MHz step up or
  down depending on whether the peak temperature is below or above the
  80 degC threshold.
* :mod:`repro.boosting.constant` — the constant-frequency alternative:
  the highest DVFS level whose leakage-consistent steady state stays
  below the threshold.
* :mod:`repro.boosting.simulation` — transient experiments producing the
  Figure 11 traces and the Figure 12/13 sweeps, advanced in lockstep by
  :func:`repro.boosting.simulation.run_transients`; per-instance
  boosting steps through the same loop.
"""

from repro.boosting.controller import BoostingController
from repro.boosting.constant import best_constant_frequency
from repro.boosting.simulation import (
    PlacedWorkload,
    TransientRun,
    place_workload,
    run_boosting,
    run_constant,
    run_per_instance_boosting,
    run_transients,
    BoostingRunResult,
    ConstantRunResult,
)

__all__ = [
    "BoostingController",
    "best_constant_frequency",
    "PlacedWorkload",
    "TransientRun",
    "place_workload",
    "run_boosting",
    "run_constant",
    "run_per_instance_boosting",
    "run_transients",
    "BoostingRunResult",
    "ConstantRunResult",
]
