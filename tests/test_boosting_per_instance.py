"""Per-instance frequency evaluation and per-instance boosting."""

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.apps.workload import Workload
from repro.boosting.controller import BoostingController
from repro.boosting.simulation import (
    PlacedWorkload,
    place_workload,
    run_boosting,
    run_per_instance_boosting,
)
from repro.core.constraints import TemperatureConstraint
from repro.core.dark_silicon import estimate_dark_silicon
from repro.errors import ConfigurationError
from repro.experiments.common import get_chip
from repro.mapping.patterns import NeighbourhoodSpreadPlacer
from repro.power.vf_curve import VFCurve
from repro.thermal.transient import TransientSimulator
from repro.units import GIGA
from tests._helpers import assert_runs_equal


@pytest.fixture(scope="module")
def placed(small_chip):
    w = Workload()
    from repro.apps.workload import ApplicationInstance

    w.add(ApplicationInstance(PARSEC["x264"], 4, 3.0 * GIGA))
    w.add(ApplicationInstance(PARSEC["canneal"], 4, 2.0 * GIGA))
    return place_workload(small_chip, w)


class TestPerInstanceEvaluation:
    def test_matches_chipwide_at_uniform_frequency(self, placed):
        f = 2.5 * GIGA
        temps = np.full(16, 70.0)
        uniform = placed.total_powers(f, temps)
        per_instance = placed.instance_total_powers([f, f], temps)
        assert np.array_equal(uniform, per_instance)

    @pytest.mark.parametrize("node", ["16nm", "11nm", "8nm"])
    def test_one_power_expression_on_every_ladder_level(self, node):
        # Per-instance rows are the chip-wide operating point's entries,
        # so one common frequency gives the chip-wide vector bit for bit.
        chip = get_chip(node)
        workload = Workload.replicate(PARSEC["x264"], 12, 8, chip.node.f_max)
        placed = place_workload(chip, workload, placer=NeighbourhoodSpreadPlacer())
        temps = np.linspace(45.0, 95.0, chip.n_cores)
        for f in chip.node.frequency_ladder():
            per_instance = placed.instance_total_powers([f] * 12, temps)
            assert np.array_equal(per_instance, placed.total_powers(f, temps)), f

    def test_performance_matches_chipwide(self, placed):
        f = 2.5 * GIGA
        assert placed.instance_performance([f, f]) == pytest.approx(
            placed.performance(f)
        )

    def test_heterogeneous_frequencies(self, placed):
        temps = np.full(16, 70.0)
        powers = placed.instance_total_powers([3.0 * GIGA, 1.0 * GIGA], temps)
        # The x264 instance (cores 0-3) runs hot, canneal (cores 4-7) cool.
        assert powers[:4].mean() > powers[4:8].mean()

    def test_zero_frequency_gates_one_instance(self, placed):
        temps = np.full(16, 70.0)
        powers = placed.instance_total_powers([3.0 * GIGA, 0.0], temps)
        assert powers[4:8].sum() == 0.0
        assert powers[:4].sum() > 0.0

    def test_wrong_count_rejected(self, placed):
        with pytest.raises(ConfigurationError, match="per-instance"):
            placed.instance_total_powers([1e9], np.full(16, 70.0))

    def test_performance_additive(self, placed):
        fa = placed.instance_performance([2.0 * GIGA, 0.0])
        fb = placed.instance_performance([0.0, 2.0 * GIGA])
        both = placed.instance_performance([2.0 * GIGA, 2.0 * GIGA])
        assert both == pytest.approx(fa + fb)


class TestFromMapping:
    def test_adopts_placement_and_frequencies(self, small_chip):
        result = estimate_dark_silicon(
            small_chip, PARSEC["x264"], 2.8 * GIGA, TemperatureConstraint(),
            threads=4,
        )
        placed, freqs = PlacedWorkload.from_mapping(result)
        assert placed.n_instances == len(result.placed)
        assert all(f == pytest.approx(2.8 * GIGA) for f in freqs)
        assert placed.occupied == result.occupied

    def test_steady_powers_match_mapping(self, small_chip):
        result = estimate_dark_silicon(
            small_chip, PARSEC["x264"], 2.8 * GIGA, TemperatureConstraint(),
            threads=4,
        )
        placed, freqs = PlacedWorkload.from_mapping(result)
        temps = np.full(small_chip.n_cores, small_chip.t_dtm)
        powers = placed.instance_total_powers(freqs, temps)
        assert np.allclose(powers, result.core_powers)


class TestPerInstanceBoosting:
    def _controllers(self, chip, n, start):
        curve = VFCurve.for_node(chip.node)
        return [
            BoostingController(
                f_min=chip.node.f_min,
                f_max=curve.f_limit,
                step=chip.node.dvfs_step,
                threshold=chip.t_dtm,
                initial_frequency=start,
            )
            for _ in range(n)
        ]

    def test_runs_and_oscillates(self, small_chip, placed):
        controllers = self._controllers(small_chip, 2, 2.0 * GIGA)
        result = run_per_instance_boosting(
            placed, controllers, duration=2.0,
            warm_start_frequencies=[2.0 * GIGA] * 2,
        )
        assert result.average_gips > 0
        assert result.max_temperature <= small_chip.t_dtm + 2.0

    def test_controller_count_enforced(self, small_chip, placed):
        controllers = self._controllers(small_chip, 1, 2.0 * GIGA)
        with pytest.raises(ConfigurationError, match="controllers"):
            run_per_instance_boosting(placed, controllers, duration=0.5)

    def test_power_cap_enforced(self, small_chip, placed):
        controllers = self._controllers(small_chip, 2, 2.0 * GIGA)
        cap = 20.0
        result = run_per_instance_boosting(
            placed, controllers, duration=1.0,
            warm_start_frequencies=[2.0 * GIGA] * 2, power_cap=cap,
        )
        assert result.max_power <= cap * 1.02

    @pytest.mark.parametrize("start, cap", [(4.6 * GIGA, None), (2.0 * GIGA, 30.0)])
    def test_one_instance_equals_chip_wide(self, small_chip, start, cap):
        # One instance is one control group, and while its hottest core
        # is the chip's hottest it makes the chip-wide controller's
        # decisions: the two runs agree field for field, bit for bit.
        one = place_workload(
            small_chip, Workload.replicate(PARSEC["x264"], 1, 8, start)
        )
        timing = dict(duration=0.5, dt=1e-3, record_interval=1e-3, power_cap=cap)
        chip_wide = run_boosting(
            one,
            self._controllers(small_chip, 1, start)[0],
            warm_start_frequency=start,
            **timing,
        )
        per_instance = run_per_instance_boosting(
            one,
            self._controllers(small_chip, 1, start),
            warm_start_frequencies=[start],
            **timing,
        )
        assert_runs_equal(per_instance, chip_wide)
        if cap is None:
            # The threshold is crossed, so the controller steps down too.
            assert chip_wide.max_temperature >= small_chip.t_dtm
        else:
            # The cap binds: uncapped, this run draws over 80 W.
            assert 28.0 < chip_wide.max_power <= cap

        # Replay the applied frequencies: before every step the hottest
        # core is an active one, by a margin far above rounding.
        active = sorted(one.occupied)
        dark = sorted(set(range(small_chip.n_cores)) - one.occupied)
        sim = TransientSimulator(small_chip.thermal, dt=1e-3)
        temps0 = np.full(small_chip.n_cores, small_chip.t_dtm)
        sim.warm_start(one.total_powers(start, temps0))
        for f in chip_wide.frequencies:
            temps = sim.core_temperatures
            assert temps[active].max() > temps[dark].max() + 0.5
            sim.step(one.total_powers(f, temps))

    def test_beats_or_matches_chip_wide(self, small_chip, placed):
        """Per-instance control exploits per-region headroom: total GIPS
        is at least the chip-wide controller's."""
        start = 2.0 * GIGA
        chip_wide = run_boosting(
            placed,
            self._controllers(small_chip, 1, start)[0],
            duration=2.0,
            warm_start_frequency=start,
        )
        per_instance = run_per_instance_boosting(
            placed,
            self._controllers(small_chip, 2, start),
            duration=2.0,
            warm_start_frequencies=[start] * 2,
        )
        assert per_instance.average_gips >= chip_wide.average_gips * 0.98
