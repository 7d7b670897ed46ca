"""Backward-Euler transient simulation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.tech.library import NODE_16NM
from repro.thermal.builder import build_thermal_model
from repro.thermal.transient import TransientSimulator


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(grid_floorplan(3, 3, NODE_16NM.core_area))


class TestStep:
    def test_starts_at_ambient(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        assert np.allclose(sim.core_temperatures, model.ambient)

    def test_heating_step_raises_temperature(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        before = sim.core_temperatures.copy()
        after = sim.step([2.0] * 9)
        assert np.all(after >= before)
        assert after.max() > before.max()

    def test_cooling_after_power_off(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        for _ in range(200):
            sim.step([3.0] * 9)
        hot = sim.peak_temperature
        for _ in range(200):
            sim.step([0.0] * 9)
        assert sim.peak_temperature < hot

    def test_invalid_dt_rejected(self, model):
        with pytest.raises(ConfigurationError, match="dt"):
            TransientSimulator(model, dt=0.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_dt_rejected(self, model, dt):
        # A NaN step used to pass the dt <= 0 check and fail inside the
        # factorisation as "Factor is exactly singular".
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            TransientSimulator(model, dt=dt)
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            model.step_factorization(dt)


class TestBlockSteps:
    """k trajectories in one (n_nodes, k) state, one solve per step."""

    @pytest.fixture(scope="class")
    def sparse_model(self):
        return build_thermal_model(
            grid_floorplan(3, 3, NODE_16NM.core_area), backend="sparse"
        )

    def test_block_equals_independent_simulators(self, sparse_model):
        rng = np.random.default_rng(7)
        k, n_steps = 4, 12
        start = rng.uniform(0.0, 5.0, (k, 9))
        schedule = rng.uniform(0.0, 6.0, (n_steps, k, 9))
        block = TransientSimulator(sparse_model, dt=1e-3)
        block.warm_start(start)
        singles = [TransientSimulator(sparse_model, dt=1e-3) for _ in range(k)]
        for sim, row in zip(singles, start):
            sim.warm_start(row)
        assert np.array_equal(
            block.core_temperatures,
            np.stack([sim.core_temperatures for sim in singles]),
        )
        for powers in schedule:
            got = block.step(powers)
            want = np.stack([sim.step(row) for sim, row in zip(singles, powers)])
            assert got.shape == (k, 9)
            assert np.array_equal(got, want)

    def test_block_from_single_state_copies_it(self, sparse_model):
        block = TransientSimulator(sparse_model, dt=1e-3)
        single = TransientSimulator(sparse_model, dt=1e-3)
        got = block.step(np.full((3, 9), 2.0))
        want = single.step(np.full(9, 2.0))
        assert np.array_equal(got, np.stack([want] * 3))

    def test_wrong_width_block_rejected(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        with pytest.raises(ConfigurationError, match="core powers"):
            sim.step(np.zeros((2, 8)))
        with pytest.raises(ConfigurationError, match="core powers"):
            sim.warm_start(np.zeros((2, 10)))
        with pytest.raises(ConfigurationError, match="core powers"):
            sim.step(np.zeros(8))

    def test_block_size_fixed_once_started(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        sim.warm_start(np.zeros((2, 9)))
        with pytest.raises(ConfigurationError, match="trajectories"):
            sim.step(np.zeros((3, 9)))
        with pytest.raises(ConfigurationError, match="trajectories"):
            sim.step(np.zeros(9))


class TestConvergenceToSteadyState:
    def test_long_run_reaches_steady_state(self, model):
        sim = TransientSimulator(model, dt=0.05)
        powers = [2.0] * 9
        for _ in range(20000):
            sim.step(powers)
        steady = model.core_steady_state(powers)
        assert np.allclose(sim.core_temperatures, steady, atol=0.05)

    def test_warm_start_matches_steady_state(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        powers = [2.0] * 9
        sim.warm_start(powers)
        steady = model.core_steady_state(powers)
        assert np.allclose(sim.core_temperatures, steady, atol=1e-9)

    def test_warm_started_state_is_stationary(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        powers = [2.0] * 9
        sim.warm_start(powers)
        before = sim.core_temperatures.copy()
        sim.step(powers)
        assert np.allclose(sim.core_temperatures, before, atol=1e-9)


class TestSimulate:
    def test_records_requested_samples(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(
            lambda t, temps: [1.0] * 9, duration=0.1, record_interval=0.01
        )
        assert len(result.times) == 10
        assert result.core_temperatures.shape == (10, 9)
        assert result.core_powers.shape == (10, 9)

    def test_default_records_every_step(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(lambda t, temps: [1.0] * 9, duration=0.01)
        assert len(result.times) == 10

    def test_times_monotone(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(
            lambda t, temps: [1.0] * 9, duration=0.05, record_interval=0.01
        )
        assert np.all(np.diff(result.times) > 0)

    def test_schedule_sees_temperatures(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        seen = []

        def schedule(t, temps):
            seen.append(temps.max())
            return [4.0] * 9

        sim.simulate(schedule, duration=0.05)
        assert len(seen) == 50
        assert seen[-1] > seen[0]

    def test_closed_loop_thermostat(self, model):
        """A bang-bang schedule holds temperature near its setpoint."""
        sim = TransientSimulator(model, dt=0.05)
        setpoint = 60.0

        def thermostat(t, temps):
            return [8.0] * 9 if temps.max() < setpoint else [0.0] * 9

        result = sim.simulate(thermostat, duration=400.0, record_interval=10.0)
        final = result.peak_temperatures[-1]
        # The fast silicon time constant makes the bang-bang oscillate a
        # few kelvin under the setpoint at this control period; it must
        # sit well above ambient (45) and well below the always-on
        # steady state (~82).
        assert setpoint - 6.0 <= final <= setpoint + 1.0

    def test_result_aggregates(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(lambda t, temps: [2.0] * 9, duration=0.02)
        assert np.all(result.total_powers == pytest.approx(18.0))
        assert result.peak_temperatures.shape == result.times.shape

    def test_recorded_powers_do_not_alias_reused_buffer(self, model):
        # Regression: simulate() used to record the schedule's ndarray
        # without copying (np.asarray is a no-op on an ndarray), so a
        # schedule reusing one buffer made every recorded power row
        # alias — and equal — the final vector.
        buf = np.zeros(9)

        def schedule(t, temps):
            buf[:] = 1.0 if t < 2e-3 else 5.0
            return buf

        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(schedule, duration=4e-3)
        assert np.allclose(result.core_powers[0], 1.0)
        assert np.allclose(result.core_powers[-1], 5.0)

    def test_invalid_duration_rejected(self, model):
        sim = TransientSimulator(model, dt=1e-3)
        with pytest.raises(ConfigurationError, match="duration"):
            sim.simulate(lambda t, temps: [0.0] * 9, duration=-1.0)

    def test_fractional_step_duration_rejected(self, model):
        # Regression: a duration of 2.5 steps used to be silently rounded
        # to 2 steps, simulating a different interval than requested.
        sim = TransientSimulator(model, dt=1e-3)
        with pytest.raises(ConfigurationError, match="whole number"):
            sim.simulate(lambda t, temps: [0.0] * 9, duration=2.5e-3)

    def test_near_integer_duration_tolerated(self, model):
        # Float representation noise (e.g. 0.1 + 0.2) must not trip the
        # whole-number check.
        sim = TransientSimulator(model, dt=1e-3)
        result = sim.simulate(
            lambda t, temps: [0.0] * 9, duration=(0.001 + 0.002)
        )
        assert len(result.times) == 3

    def test_record_interval_below_dt_rejected(self, model):
        sim = TransientSimulator(model, dt=1e-2)
        with pytest.raises(ConfigurationError, match="record_interval"):
            sim.simulate(
                lambda t, temps: [0.0] * 9, duration=1.0, record_interval=1e-3
            )
