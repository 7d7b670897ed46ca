"""Steady-state thermal solving, with optional leakage coupling.

The basic solve is linear: ``T = T_amb + A^-1 P``.  Because Eq. (1)'s
leakage term depends on temperature, the *consistent* steady state of a
real operating point couples the two models; :meth:`SteadyStateSolver.
solve_with_leakage` finds it by fixed-point iteration (the standard
HotSpot+McPAT co-simulation loop).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError
from repro.thermal.model import ThermalModel

#: Convergence tolerance on the core-temperature fixed point, in K.
DEFAULT_TOLERANCE = 1e-4

#: Iteration budget for the leakage fixed point.
DEFAULT_MAX_ITERATIONS = 100

#: Temperatures above this are treated as thermal runaway, in degC.
RUNAWAY_TEMPERATURE = 1000.0


class SteadyStateSolver:
    """Steady-state solver bound to one :class:`ThermalModel`."""

    def __init__(self, model: ThermalModel) -> None:
        self._model = model

    @property
    def model(self) -> ThermalModel:
        """The underlying thermal model."""
        return self._model

    def temperatures(self, core_powers: Sequence[float]) -> np.ndarray:
        """Steady-state core temperatures (degC) for per-core powers (W).

        Accepts one vector (shape ``(n,)``) or a whole batch (shape
        ``(k, n)``); a batch is one multi-RHS solve against the model's
        shared factorisation, not ``k`` sequential solves.
        """
        p = np.asarray(core_powers, dtype=float)
        if p.ndim == 2:
            return self._model.core_steady_state_batch(p)
        return self._model.core_steady_state(p)

    def peak_temperature(self, core_powers: Sequence[float]) -> float:
        """Hottest core's steady-state temperature, in degC."""
        return float(np.max(self.temperatures(core_powers)))

    def solve_with_leakage(
        self,
        base_powers: Sequence[float],
        leakage_power: Callable[[np.ndarray], np.ndarray],
        initial_temperatures: Optional[Sequence[float]] = None,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Temperature/leakage-consistent steady state.

        Args:
            base_powers: per-core temperature-independent power (dynamic
                plus independent terms of Eq. (1)), in W.
            leakage_power: maps the per-core temperature vector (degC) to
                the per-core leakage power vector (W).
            initial_temperatures: starting point of the iteration;
                defaults to the leakage-free solution.
            tolerance: max-norm temperature change declaring convergence.
            max_iterations: iteration budget.

        Returns:
            ``(core_temperatures, total_core_powers)`` at the fixed point.

        Raises:
            ConvergenceError: on iteration-budget exhaustion or thermal
                runaway (leakage growth outrunning conduction).
        """
        base = np.asarray(base_powers, dtype=float)
        if base.shape != (self._model.n_cores,):
            raise ConfigurationError(
                f"expected {self._model.n_cores} base powers, got shape {base.shape}"
            )
        if initial_temperatures is None:
            temps = self.temperatures(base)
        else:
            temps = np.asarray(initial_temperatures, dtype=float)
            if temps.shape != base.shape:
                raise ConfigurationError(
                    "initial_temperatures must match the core count"
                )
        powers = base
        for _ in range(max_iterations):
            obs.incr("thermal.steady.leakage_iterations")
            leak = np.asarray(leakage_power(temps), dtype=float)
            if leak.shape != base.shape:
                raise ConfigurationError(
                    "leakage_power must return one value per core"
                )
            powers = base + leak
            new_temps = self.temperatures(powers)
            if np.max(new_temps) > RUNAWAY_TEMPERATURE:
                raise ConvergenceError(
                    f"thermal runaway: peak temperature reached "
                    f"{np.max(new_temps):.0f} degC during leakage iteration"
                )
            if np.max(np.abs(new_temps - temps)) < tolerance:
                return new_temps, powers
            temps = new_temps
        raise ConvergenceError(
            f"leakage fixed point did not converge in {max_iterations} iterations"
        )
