"""Batched steady-state engine: equivalence, shared TSP tables."""

import numpy as np
import pytest

from repro.chip import Chip
from repro.core.tsp import ThermalSafePower
from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.perf import BatchedSteadyState
from repro.tech.library import NODE_16NM
from repro.thermal.builder import build_thermal_model
from repro.thermal.steady_state import SteadyStateSolver


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(grid_floorplan(4, 4, NODE_16NM.core_area))


@pytest.fixture(scope="module")
def solver(model):
    return SteadyStateSolver(model)


@pytest.fixture()
def engine(model):
    return BatchedSteadyState(model)


def random_powers(n, k=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n,) if k is None else (k, n)
    return rng.uniform(0.0, 5.0, size=shape)


class TestSolverEquivalence:
    """The batched path must be numerically identical to the LU path."""

    def test_single_vector_temperatures(self, engine, solver):
        for seed in range(10):
            p = random_powers(engine.n_cores, seed=seed)
            direct = solver.temperatures(p)
            batched = engine.temperatures(p)
            assert np.max(np.abs(batched - direct)) <= 1e-9

    def test_single_vector_peak(self, engine, solver):
        for seed in range(10):
            p = random_powers(engine.n_cores, seed=seed)
            assert abs(
                engine.peak_temperature(p) - solver.peak_temperature(p)
            ) <= 1e-9

    def test_batch_matches_per_row_solves(self, engine, solver):
        batch = random_powers(engine.n_cores, k=32, seed=7)
        batched = engine.temperatures(batch)
        for row, p in zip(batched, batch):
            assert np.max(np.abs(row - solver.temperatures(p))) <= 1e-9

    def test_peak_batch_matches_scalar_path(self, engine):
        batch = random_powers(engine.n_cores, k=16, seed=3)
        peaks = engine.peak_temperatures(batch)
        singles = [engine.peak_temperature(p) for p in batch]
        assert np.max(np.abs(peaks - np.array(singles))) <= 1e-9

    def test_idle_vector_is_ambient(self, engine):
        p = np.zeros(engine.n_cores)
        assert engine.peak_temperature(p) == pytest.approx(engine.ambient)


class TestValidation:
    def test_wrong_vector_length_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="core powers"):
            engine.temperatures(np.zeros(engine.n_cores + 1))
        with pytest.raises(ConfigurationError, match="core powers"):
            engine.peak_temperature(np.zeros(engine.n_cores + 1))

    def test_wrong_batch_width_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="batch"):
            engine.temperatures(np.zeros((3, engine.n_cores + 1)))

    def test_peak_batch_needs_two_dims(self, engine):
        with pytest.raises(ConfigurationError, match="2-D"):
            engine.peak_temperatures(np.zeros(engine.n_cores))

    def test_non_finite_powers_rejected_before_caching(self, engine):
        # A NaN/inf power must fail loudly, not yield a NaN peak.
        for bad in (np.nan, np.inf, -np.inf):
            p = random_powers(engine.n_cores)
            p[2] = bad
            with pytest.raises(ConfigurationError, match="finite"):
                engine.peak_temperature(p)


class TestChipEngine:
    def test_engine_is_cached_on_chip(self):
        chip = Chip.grid_chip(NODE_16NM, 3, 3)
        assert chip.engine is chip.engine

    def test_engine_binds_chip_model(self):
        chip = Chip.grid_chip(NODE_16NM, 3, 3)
        assert chip.engine.model is chip.thermal
        assert np.array_equal(
            chip.engine.influence, chip.thermal.influence_matrix()
        )


class TestSharedTspTables:
    def test_single_count_matches_full_table(self, engine):
        headroom = 55.0
        for inactive in (0.0, 0.3):
            # A fresh engine answers single counts before any table call.
            fresh = BatchedSteadyState(engine.model)
            singles = [
                fresh.tsp_for_count(m, headroom, inactive)
                for m in range(1, engine.n_cores + 1)
            ]
            budgets, centres = engine.tsp_table(headroom, inactive)
            assert singles == list(zip(budgets.tolist(), centres.tolist()))

    def test_table_is_shared_per_parameters(self, engine):
        first = engine.tsp_table(55.0, 0.0)
        second = engine.tsp_table(55.0, 0.0)
        assert first[0] is second[0]

    def test_non_positive_headroom_rejected(self, engine):
        for headroom in (0.0, -5.0, np.nan):
            with pytest.raises(ConfigurationError, match="headroom"):
                engine.tsp_table(headroom, 0.0)

    def test_count_out_of_range_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="active-core count"):
            engine.tsp_for_count(0, 55.0, 0.0)
        with pytest.raises(ConfigurationError, match="active-core count"):
            engine.tsp_for_count(engine.n_cores + 1, 55.0, 0.0)

    def test_tsp_instances_share_one_engine(self):
        chip = Chip.grid_chip(NODE_16NM, 3, 3)
        a = ThermalSafePower(chip)
        b = ThermalSafePower(chip)
        assert a.worst_case(4) == b.worst_case(4)
