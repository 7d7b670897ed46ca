"""Steady-state solver and the leakage fixed point."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.floorplan.generator import grid_floorplan
from repro.tech.library import NODE_16NM
from repro.thermal.builder import build_thermal_model
from repro.thermal.steady_state import SteadyStateSolver


@pytest.fixture(scope="module")
def solver():
    return SteadyStateSolver(
        build_thermal_model(grid_floorplan(3, 3, NODE_16NM.core_area))
    )


class TestBasics:
    def test_peak_is_max_of_temperatures(self, solver):
        powers = [1.0, 0, 0, 0, 3.0, 0, 0, 0, 1.0]
        temps = solver.temperatures(powers)
        assert solver.peak_temperature(powers) == pytest.approx(temps.max())

    def test_idle_peak_is_ambient(self, solver):
        assert solver.peak_temperature([0.0] * 9) == pytest.approx(
            solver.model.ambient
        )

    def test_peak_monotone_in_power(self, solver):
        assert solver.peak_temperature([2.0] * 9) > solver.peak_temperature(
            [1.0] * 9
        )


class TestLeakageFixedPoint:
    def test_constant_leakage_adds_up(self, solver):
        base = np.full(9, 1.0)
        temps, powers = solver.solve_with_leakage(
            base, lambda t: np.full(9, 0.5)
        )
        assert np.allclose(powers, 1.5)
        direct = solver.temperatures(np.full(9, 1.5))
        assert np.allclose(temps, direct, atol=1e-3)

    def test_zero_leakage_matches_linear(self, solver):
        base = np.full(9, 2.0)
        temps, powers = solver.solve_with_leakage(base, lambda t: np.zeros(9))
        assert np.allclose(powers, base)
        assert np.allclose(temps, solver.temperatures(base), atol=1e-6)

    def test_temperature_dependent_leakage_converges(self, solver):
        base = np.full(9, 2.0)

        def leak(t):
            return 0.1 * np.exp(0.01 * (t - 45.0))

        temps, powers = solver.solve_with_leakage(base, leak)
        # Fixed point: the returned powers equal base + leak(temps).
        assert np.allclose(powers, base + leak(temps), atol=1e-3)

    def test_iterations_are_counted(self, solver, global_obs):
        # A constant leakage moves the first iterate and leaves the
        # second unchanged: exactly two iterations.
        solver.solve_with_leakage(np.full(9, 1.0), lambda t: np.full(9, 0.5))
        counters = global_obs.snapshot()["counters"]
        assert counters["thermal.steady.leakage_iterations"] == 2

    def test_fixed_point_hotter_than_leakless(self, solver):
        base = np.full(9, 2.0)
        temps, _ = solver.solve_with_leakage(
            base, lambda t: 0.1 * np.exp(0.01 * (t - 45.0))
        )
        assert temps.max() > solver.temperatures(base).max()

    def test_runaway_detected(self, solver):
        base = np.full(9, 2.0)
        with pytest.raises(ConvergenceError, match="runaway"):
            # Leakage that doubles per 2 K cannot be balanced.
            solver.solve_with_leakage(
                base, lambda t: 5.0 * np.exp(0.4 * (t - 45.0))
            )

    def test_non_convergence_detected(self, solver):
        base = np.full(9, 1.0)
        # An oscillating (non-physical) leakage callback never settles.
        state = {"flip": False}

        def leak(t):
            state["flip"] = not state["flip"]
            return np.full(9, 5.0 if state["flip"] else 0.0)

        with pytest.raises(ConvergenceError, match="converge"):
            solver.solve_with_leakage(base, leak, max_iterations=20)

    def test_initial_temperature_accepted(self, solver):
        base = np.full(9, 1.0)
        temps, _ = solver.solve_with_leakage(
            base,
            lambda t: 0.05 * np.ones(9),
            initial_temperatures=np.full(9, 60.0),
        )
        assert temps.shape == (9,)

    def test_wrong_base_length_rejected(self, solver):
        with pytest.raises(ConfigurationError, match="base powers"):
            solver.solve_with_leakage(np.ones(4), lambda t: np.zeros(4))

    def test_wrong_leakage_length_rejected(self, solver):
        with pytest.raises(ConfigurationError, match="per core"):
            solver.solve_with_leakage(np.ones(9), lambda t: np.zeros(4))

    def test_wrong_initial_length_rejected(self, solver):
        with pytest.raises(ConfigurationError, match="initial_temperatures"):
            solver.solve_with_leakage(
                np.ones(9), lambda t: np.zeros(9), initial_temperatures=np.ones(3)
            )
