"""Thermal Safe Power (paper Section 5)."""

import numpy as np
import pytest

from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.errors import ConfigurationError, InfeasibleError
from repro.power.budget import tdp_all_cores_at_threshold
from repro.tech.library import NODE_16NM


@pytest.fixture(scope="module")
def tsp(small_chip):
    return ThermalSafePower(small_chip)


class TestForMapping:
    def test_budget_is_thermally_exact(self, small_chip, tsp):
        active = [0, 5, 10, 15]
        budget = tsp.for_mapping(active)
        powers = np.zeros(16)
        powers[active] = budget
        peak = small_chip.solver.peak_temperature(powers)
        assert peak == pytest.approx(small_chip.t_dtm, abs=1e-6)

    def test_budget_safe_below(self, small_chip, tsp):
        active = [0, 1, 2]
        budget = tsp.for_mapping(active)
        powers = np.zeros(16)
        powers[active] = 0.9 * budget
        assert small_chip.solver.peak_temperature(powers) < small_chip.t_dtm

    def test_concentrated_mapping_has_lower_budget(self, tsp):
        spread = tsp.for_mapping([0, 3, 12, 15])  # corners
        packed = tsp.for_mapping([5, 6, 9, 10])  # centre cluster
        assert packed < spread

    def test_duplicates_rejected(self, tsp):
        with pytest.raises(ConfigurationError, match="duplicate"):
            tsp.for_mapping([1, 1, 2])

    def test_empty_rejected(self, tsp):
        with pytest.raises(ConfigurationError, match="at least one"):
            tsp.for_mapping([])

    def test_out_of_range_rejected(self, tsp):
        with pytest.raises(ConfigurationError, match="core indices"):
            tsp.for_mapping([0, 99])


class TestWorstCase:
    def test_worst_case_below_any_specific_mapping(self, tsp):
        m = 4
        worst = tsp.worst_case(m)
        for mapping in ([0, 3, 12, 15], [0, 1, 2, 3], [5, 6, 9, 10]):
            assert worst <= tsp.for_mapping(mapping) + 1e-9

    def test_worst_mapping_attains_worst_budget(self, small_chip, tsp):
        # for_mapping is the independent per-mapping formula the shared
        # table must agree with, at every count.
        for m in range(1, small_chip.n_cores + 1):
            mapping = tsp.worst_case_mapping(m)
            assert tsp.for_mapping(mapping) == pytest.approx(tsp.worst_case(m))

    def test_per_core_budget_decreases_with_active_count(self, tsp):
        budgets = [tsp.worst_case(m) for m in range(1, 17)]
        for a, b in zip(budgets, budgets[1:]):
            assert b < a

    def test_total_budget_increases_with_active_count(self, tsp):
        totals = [tsp.total_budget(m) for m in range(1, 17)]
        for a, b in zip(totals, totals[1:]):
            assert b > a

    def test_full_chip_tsp_matches_all_cores_tdp(self, small_chip, tsp):
        """TSP(n) * n must equal the optimistic TDP derivation."""
        tdp = tdp_all_cores_at_threshold(
            small_chip.solver, small_chip.n_cores, tolerance=1e-6
        )
        assert tsp.total_budget(small_chip.n_cores) == pytest.approx(tdp, rel=1e-3)

    def test_worst_mapping_is_concentrated(self, small_chip, tsp):
        """The worst 4-core mapping clusters around the chip centre."""
        mapping = tsp.worst_case_mapping(4)
        coords = [small_chip.grid_coordinates(c) for c in mapping]
        rows = [r for r, _ in coords]
        cols = [c for _, c in coords]
        assert max(rows) - min(rows) <= 2
        assert max(cols) - min(cols) <= 2

    def test_invalid_m_rejected(self, tsp):
        with pytest.raises(ConfigurationError):
            tsp.worst_case(0)
        with pytest.raises(ConfigurationError):
            tsp.worst_case(17)


class TestTable:
    def test_table_covers_all_counts(self, small_chip, tsp):
        table = tsp.table()
        assert set(table) == set(range(1, 17))

    def test_table_subset(self, tsp):
        table = tsp.table([1, 8, 16])
        assert set(table) == {1, 8, 16}
        assert table[8] == pytest.approx(tsp.worst_case(8))


class TestCallHistory:
    @pytest.mark.parametrize("inactive_power", [0.0, 0.3])
    def test_results_do_not_depend_on_table_call(self, inactive_power):
        # A budget and its worst-case mapping must not depend on whether
        # another caller on the chip built the full table first.
        warm, cold = (
            ThermalSafePower(Chip.grid_chip(NODE_16NM, 6, 6), inactive_power)
            for _ in range(2)
        )
        warm.table()
        for m in range(1, cold.chip.n_cores + 1):
            assert cold.worst_case(m) == warm.worst_case(m)
            assert cold.worst_case_mapping(m) == warm.worst_case_mapping(m)


class TestInactivePower:
    def test_inactive_power_lowers_budget(self, small_chip):
        base = ThermalSafePower(small_chip).worst_case(4)
        leaky = ThermalSafePower(small_chip, inactive_power=0.3).worst_case(4)
        assert leaky < base

    def test_excessive_inactive_power_infeasible(self, small_chip):
        tsp = ThermalSafePower(small_chip, inactive_power=100.0)
        with pytest.raises(InfeasibleError):
            tsp.for_mapping([0])

    def test_negative_inactive_power_rejected(self, small_chip):
        with pytest.raises(ConfigurationError, match="inactive_power"):
            ThermalSafePower(small_chip, inactive_power=-0.1)

    def test_t_dtm_override(self, small_chip):
        hot = ThermalSafePower(small_chip, t_dtm=95.0).worst_case(4)
        cold = ThermalSafePower(small_chip, t_dtm=70.0).worst_case(4)
        assert hot > cold

    def test_t_dtm_below_ambient_rejected(self, small_chip):
        with pytest.raises(ConfigurationError, match="ambient"):
            ThermalSafePower(small_chip, t_dtm=30.0)
