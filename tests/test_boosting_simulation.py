"""Placed workloads and transient boosting/constant runs."""

import numpy as np
import pytest

from repro import obs
from repro.apps.parsec import PARSEC
from repro.apps.workload import ApplicationInstance, Workload
from repro.boosting.constant import best_constant_frequency, constant_steady
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    PlacedWorkload,
    TransientRun,
    place_workload,
    run_boosting,
    run_constant,
    run_per_instance_boosting,
    run_transients,
)
from repro.chip import Chip
from repro.errors import ConfigurationError, InfeasibleError, MappingError
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_11NM
from repro.thermal.backends import set_default_backend
from repro.units import GIGA
from tests._helpers import assert_runs_equal


@pytest.fixture(scope="module")
def placed(small_chip):
    w = Workload.replicate(PARSEC["x264"], 2, 4, 3.0 * GIGA)
    return place_workload(small_chip, w)


class TestPlacedWorkload:
    def test_counts(self, placed):
        assert placed.n_instances == 2
        assert placed.active_cores == 8

    def test_base_powers_match_eq1(self, small_chip, placed):
        f = 3.0 * GIGA
        base = placed.base_powers(f)
        app = PARSEC["x264"]
        model = app.power_model(small_chip.node)
        v = model.voltage_for(f)
        expected = model.dynamic_power(f, alpha=app.utilisation(4), vdd=v) + model.pind
        for c in placed.occupied:
            assert base[c] == pytest.approx(expected)

    def test_dark_cores_draw_nothing(self, placed):
        total = placed.total_powers(3.0 * GIGA, np.full(16, 60.0))
        for c in range(16):
            if c not in placed.occupied:
                assert total[c] == 0.0

    def test_leakage_grows_with_temperature(self, placed):
        cold = placed.leakage_powers(3.0 * GIGA, np.full(16, 50.0))
        hot = placed.leakage_powers(3.0 * GIGA, np.full(16, 80.0))
        assert hot.sum() > cold.sum()

    def test_total_matches_app_model_at_uniform_temperature(self, small_chip, placed):
        f, t = 3.0 * GIGA, 72.0
        total = placed.total_powers(f, np.full(16, t))
        expected = PARSEC["x264"].core_power(small_chip.node, 4, f, temperature=t)
        for c in placed.occupied:
            assert total[c] == pytest.approx(expected)

    def test_performance_linear_in_frequency(self, placed):
        assert placed.performance(2.0 * GIGA) == pytest.approx(
            2.0 * placed.performance(1.0 * GIGA)
        )

    def test_zero_frequency_zero_power(self, placed):
        assert placed.base_powers(0.0).sum() == 0.0

    def test_overlapping_placements_rejected(self, small_chip):
        inst = ApplicationInstance(PARSEC["x264"], 2, 1e9)
        with pytest.raises(ConfigurationError, match="overlap"):
            PlacedWorkload(small_chip, [(inst, (0, 1)), (inst, (1, 2))])

    def test_wrong_core_count_rejected(self, small_chip):
        inst = ApplicationInstance(PARSEC["x264"], 2, 1e9)
        with pytest.raises(ConfigurationError, match="needs 2"):
            PlacedWorkload(small_chip, [(inst, (0, 1, 2))])

    def test_empty_workload_allowed(self, small_chip):
        empty = PlacedWorkload(small_chip, [])
        assert empty.performance(1e9) == 0.0
        assert empty.base_powers(1e9).sum() == 0.0


class TestPlaceWorkload:
    def test_capacity_error(self, small_chip):
        w = Workload.replicate(PARSEC["x264"], 5, 4, 1e9)  # 20 > 16 cores
        with pytest.raises(MappingError, match="capacity"):
            place_workload(small_chip, w)


class TestConstantSteady:
    def test_leakage_consistent(self, small_chip, placed):
        result = constant_steady(placed, 3.0 * GIGA)
        # Consistency: re-evaluating powers at the returned temperature
        # reproduces the returned total power.
        assert result.total_power > placed.base_powers(3.0 * GIGA).sum()
        assert result.peak_temperature > small_chip.ambient

    def test_gips(self, placed):
        result = constant_steady(placed, 3.0 * GIGA)
        assert result.gips == pytest.approx(placed.performance(3.0 * GIGA) / 1e9)


class TestBestConstantFrequency:
    def test_safe_and_maximal(self, small_chip, placed):
        result = best_constant_frequency(placed)
        assert result.peak_temperature <= small_chip.t_dtm + 1e-6
        ladder = small_chip.node.frequency_ladder()
        higher = [f for f in ladder if f > result.frequency]
        if higher:
            hotter = constant_steady(placed, higher[0])
            assert hotter.peak_temperature > small_chip.t_dtm

    def test_custom_ladder(self, placed):
        result = best_constant_frequency(placed, frequencies=[1.0 * GIGA])
        assert result.frequency == pytest.approx(1.0 * GIGA)

    def test_infeasible_raises(self, small_chip):
        w = Workload.replicate(PARSEC["swaptions"], 4, 4, 1e9)
        hot = place_workload(small_chip, w)
        with pytest.raises(InfeasibleError):
            best_constant_frequency(hot, threshold=46.0)


class TestTransients:
    def test_constant_run_holds_frequency(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.05, record_interval=0.01)
        assert np.allclose(r.frequencies, 2.0 * GIGA)

    def test_constant_gips_steady(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.05, record_interval=0.01)
        assert np.allclose(r.gips, r.gips[0])

    def test_boosting_reaches_threshold_and_oscillates(self, small_chip, placed):
        const = best_constant_frequency(placed)
        curve = VFCurve.for_node(small_chip.node)
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=curve.f_limit,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
            initial_frequency=const.frequency,
        )
        r = run_boosting(
            placed, ctrl, duration=3.0, warm_start_frequency=const.frequency
        )
        # Boosting exceeds the constant-safe average performance and
        # brushes the threshold.
        assert r.average_gips > const.gips
        assert r.max_temperature == pytest.approx(small_chip.t_dtm, abs=1.5)

    def test_power_cap_respected(self, small_chip, placed):
        const = best_constant_frequency(placed)
        curve = VFCurve.for_node(small_chip.node)
        cap = const.total_power * 1.1
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=curve.f_limit,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
            initial_frequency=const.frequency,
        )
        r = run_boosting(
            placed,
            ctrl,
            duration=1.0,
            warm_start_frequency=const.frequency,
            power_cap=cap,
        )
        assert r.max_power <= cap * 1.02

    def test_aggregates_independent_of_recording(self, placed):
        coarse = run_constant(placed, 2.0 * GIGA, duration=0.2, record_interval=0.2)
        fine = run_constant(placed, 2.0 * GIGA, duration=0.2, record_interval=0.01)
        assert coarse.average_gips == pytest.approx(fine.average_gips)
        assert coarse.average_power == pytest.approx(fine.average_power)

    def test_energy_is_power_times_time(self, placed):
        r = run_constant(placed, 2.0 * GIGA, duration=0.5, record_interval=0.1)
        assert r.energy == pytest.approx(r.average_power * 0.5)

    def test_invalid_duration_rejected(self, placed):
        with pytest.raises(ConfigurationError, match="duration"):
            run_constant(placed, 2.0 * GIGA, duration=0.0)

    @pytest.mark.parametrize(
        "timing, match",
        [
            ({"duration": 2.5e-3}, "whole number"),
            ({"duration": 0.4e-3}, "shorter than one step"),
            ({"duration": 0.01, "record_interval": 0.4e-3}, "record_interval"),
            ({"duration": 0.01, "record_interval": 2.5e-3}, "record_interval .* whole number"),
            ({"duration": 0.01, "record_interval": 3.5e-3}, "record_interval .* whole number"),
            ({"duration": float("nan")}, "duration must be positive and finite"),
            ({"duration": float("inf")}, "duration must be positive and finite"),
            ({"duration": 0.01, "record_interval": float("nan")}, "record_interval .* finite"),
            ({"duration": 0.01, "record_interval": float("inf")}, "record_interval .* finite"),
        ],
    )
    def test_partial_steps_rejected(self, small_chip, placed, timing, match):
        # Regression: these used to be rounded to whole steps while the
        # energy was still reported for the requested duration (2.5 ms
        # simulated 2 steps and reported 25% too much energy), and a
        # 2.5 ms / 3.5 ms record_interval sampled every 2 / 4 steps.
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=small_chip.node.f_max,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
        )
        calls = (
            lambda: run_constant(placed, 2.0 * GIGA, dt=1e-3, **timing),
            lambda: run_boosting(placed, ctrl, dt=1e-3, **timing),
            lambda: run_per_instance_boosting(placed, [ctrl, ctrl], dt=1e-3, **timing),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match=match):
                call()

    def test_cap_below_f_min_power_pins_f_min(self, small_chip, placed):
        # A cap no frequency meets steps every period down to f_min; the
        # power applied must then be the f_min vector, as in a constant
        # run at f_min.  A 0.3 GHz step overshoots f_min from 3 GHz.
        node = small_chip.node
        for step in (node.dvfs_step, 0.3 * GIGA):
            ctrl = BoostingController(
                f_min=node.f_min,
                f_max=node.f_max,
                step=step,
                threshold=small_chip.t_dtm,
                initial_frequency=3.0 * GIGA,
            )
            boosted, constant = run_transients(
                [
                    TransientRun(
                        placed,
                        0.05,
                        controller=ctrl,
                        record_interval=0.01,
                        warm_start_frequency=3.0 * GIGA,
                        power_cap=1.0,
                    ),
                    TransientRun(
                        placed,
                        0.05,
                        frequency=node.f_min,
                        record_interval=0.01,
                        warm_start_frequency=3.0 * GIGA,
                    ),
                ]
            )
            assert_runs_equal(boosted, constant)


@pytest.fixture(scope="module")
def sparse_chip11():
    """The 11 nm chip on the sparse backend, whatever the default is."""
    set_default_backend("sparse")
    try:
        return Chip.for_node(NODE_11NM)
    finally:
        set_default_backend(None)


class TestLockstep:
    def test_lockstep_equals_sequential(self, sparse_chip11, lockstep_runs):
        batch = run_transients(lockstep_runs(sparse_chip11))
        singles = [run_transients([run])[0] for run in lockstep_runs(sparse_chip11)]
        assert len(batch) == len(singles) == 4
        for got, want in zip(batch, singles):
            assert_runs_equal(got, want)
        # the capped cases really were capped
        assert 450.0 < batch[0].max_power <= 500.0
        assert 450.0 < batch[1].max_power <= 500.0

    def test_wrappers_are_single_runs(self, small_chip, placed):
        def ctrl():
            return BoostingController(
                f_min=small_chip.node.f_min,
                f_max=small_chip.node.f_max,
                step=small_chip.node.dvfs_step,
                threshold=small_chip.t_dtm,
                initial_frequency=2.0 * GIGA,
            )

        boosted = run_boosting(
            placed, ctrl(), 0.05, record_interval=0.01, warm_start_frequency=2.0 * GIGA
        )
        constant = run_constant(placed, 2.0 * GIGA, 0.05, record_interval=0.01)
        batch = run_transients(
            [
                TransientRun(
                    placed,
                    0.05,
                    controller=ctrl(),
                    record_interval=0.01,
                    warm_start_frequency=2.0 * GIGA,
                ),
                TransientRun(
                    placed,
                    0.05,
                    frequency=2.0 * GIGA,
                    record_interval=0.01,
                    warm_start_frequency=2.0 * GIGA,
                ),
            ]
        )
        assert_runs_equal(batch[0], boosted)
        assert_runs_equal(batch[1], constant)

    def test_cold_start_runs_start_at_ambient(self, small_chip, placed):
        cold, warm = run_transients(
            [
                TransientRun(placed, 0.01, frequency=2.0 * GIGA, record_interval=0.001),
                TransientRun(
                    placed,
                    0.01,
                    frequency=2.0 * GIGA,
                    record_interval=0.001,
                    warm_start_frequency=2.0 * GIGA,
                ),
            ]
        )
        assert_runs_equal(
            cold, run_constant(placed, 2.0 * GIGA, 0.01, record_interval=0.001, warm_start=False)
        )
        assert cold.peak_temperatures[0] < warm.peak_temperatures[0]

    def test_mixed_chips_rejected(self, small_chip, sparse_chip11, placed):
        other = place_workload(
            sparse_chip11, Workload.replicate(PARSEC["x264"], 2, 4, 3.0 * GIGA)
        )
        runs = [
            TransientRun(placed, 0.01, frequency=2.0 * GIGA),
            TransientRun(other, 0.01, frequency=2.0 * GIGA),
        ]
        with pytest.raises(ConfigurationError, match="one chip"):
            run_transients(runs)

    def test_mixed_dt_rejected(self, placed):
        runs = [
            TransientRun(placed, 0.01, frequency=2.0 * GIGA, dt=1e-3, record_interval=0.01),
            TransientRun(placed, 0.01, frequency=2.0 * GIGA, dt=2e-3, record_interval=0.01),
        ]
        with pytest.raises(ConfigurationError, match="one dt"):
            run_transients(runs)

    def test_run_needs_exactly_one_control(self, small_chip, placed):
        ctrl = BoostingController(
            f_min=small_chip.node.f_min,
            f_max=small_chip.node.f_max,
            step=small_chip.node.dvfs_step,
            threshold=small_chip.t_dtm,
        )
        with pytest.raises(ConfigurationError, match="exactly one"):
            TransientRun(placed, 0.01)
        with pytest.raises(ConfigurationError, match="exactly one"):
            TransientRun(placed, 0.01, controller=ctrl, frequency=2.0 * GIGA)
        with pytest.raises(ConfigurationError, match="power_cap"):
            TransientRun(placed, 0.01, frequency=2.0 * GIGA, power_cap=100.0)

    def test_empty_batch(self):
        assert run_transients([]) == []

    def test_each_column_counts_as_a_simulation(self, placed):
        was_enabled = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            k, n_steps = 3, 20
            run_transients(
                [
                    TransientRun(placed, n_steps * 1e-3, frequency=f * GIGA)
                    for f in (1.0, 2.0, 3.0)
                ]
            )
            snap = obs.snapshot()
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()
        assert snap["counters"]["thermal.transient.simulations"] == k
        assert snap["counters"]["thermal.transient.steps"] == k * n_steps
        hist = snap["histograms"]["thermal.transient.steps_per_sim"]
        assert hist["count"] == k
        assert hist["sum"] == k * n_steps
