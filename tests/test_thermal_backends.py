"""Solver backends: registry/selection, factorization shapes,
cross-backend equivalence of every thermal consumer.

The dense LAPACK backend is the reference; the sparse SuperLU backend
must agree with it to 1e-9 K on random floorplans — for direct steady states, batched multi-RHS solves, the
influence matrix, backward-Euler transients, and the TSP tables built
on top — and on the 11 nm chip for a lockstep boosting batch.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.boosting.simulation import run_transients
from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.perf import BatchedSteadyState
from repro.tech.library import NODE_11NM, NODE_16NM
from repro.thermal import backends
from repro.thermal.backends import (
    DenseBackend,
    DenseFactorization,
    SparseFactorization,
    backend_names,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
)
from repro.thermal.builder import build_thermal_model
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSimulator

#: Cross-backend agreement bound, in K.
TOL_K = 1e-9

#: Random chip geometries for the equivalence suite.
N_CHIPS = 3


@pytest.fixture(autouse=True)
def _clean_default():
    """Never leak a default-backend override out of a test."""
    yield
    set_default_backend(None)


def _random_floorplans():
    rng = np.random.default_rng(20260808)
    plans = []
    for _ in range(N_CHIPS):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        core_area = NODE_16NM.core_area * float(rng.uniform(0.5, 2.0))
        plans.append(grid_floorplan(rows, cols, core_area))
    return plans


@pytest.fixture(scope="module")
def model_sets():
    """Per random floorplan, one model per registered backend."""
    return [
        {name: build_thermal_model(fp, backend=name) for name in backend_names()}
        for fp in _random_floorplans()
    ]


class TestRegistry:
    def test_all_backends_registered(self):
        assert backend_names() == ("dense", "sparse")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown thermal backend"):
            get_backend("cholesky")

    def test_backend_objects_carry_their_names(self):
        for name in backend_names():
            assert get_backend(name).name == name

    def test_factory_default_is_sparse(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "sparse"

    def test_set_default_backend(self):
        set_default_backend("dense")
        assert default_backend_name() == "dense"
        assert resolve_backend(None) is get_backend("dense")

    def test_set_default_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            set_default_backend("umfpack")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV_VAR, "dense")
        assert default_backend_name() == "dense"

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV_VAR, "sparse")
        set_default_backend("dense")
        assert default_backend_name() == "dense"

    def test_env_var_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV_VAR, "nope")
        with pytest.raises(ConfigurationError, match="unknown"):
            default_backend_name()

    def test_resolve_accepts_objects(self):
        obj = DenseBackend()
        assert resolve_backend(obj) is obj
        assert resolve_backend("sparse") is get_backend("sparse")

    def test_resolve_rejects_non_backends(self):
        with pytest.raises(ConfigurationError, match="factorize"):
            resolve_backend(42)

    def test_model_reports_backend_name(self, model_sets):
        for models in model_sets:
            for name, model in models.items():
                assert model.backend_name == name


def _random_spd(rng, n=30, density=0.2):
    """A random symmetric diagonally dominant (hence SPD) sparse matrix."""
    a = sparse.random(n, n, density=density, random_state=rng)
    a = a + a.T
    a = a + sparse.diags(np.abs(a).sum(axis=1).A1 + 1.0)
    return sparse.csr_matrix(a)


class TestFactorizationShapes:
    @pytest.mark.parametrize(
        "factorization", [DenseFactorization, SparseFactorization]
    )
    def test_rejects_higher_rank_rhs(self, factorization):
        rng = np.random.default_rng(7)
        fact = factorization(_random_spd(rng))
        with pytest.raises(ConfigurationError, match="rhs"):
            fact.solve(np.zeros((3, 3, 3)))


class TestSharedFactorization:
    def test_factorization_computed_once(self, model_sets):
        for models in model_sets:
            model = models["sparse"]
            assert model.factorization() is model.factorization()

    def test_step_factorization_shared_across_simulators(self, model_sets):
        model = model_sets[0]["sparse"]
        sim_a = TransientSimulator(model, dt=1e-3)
        sim_b = TransientSimulator(model, dt=1e-3)
        assert model.step_factorization(1e-3) is model.step_factorization(1e-3)
        p = np.full(model.n_cores, 2.0)
        assert np.allclose(sim_a.step(p), sim_b.step(p))

    def test_step_factorization_distinct_per_dt(self, model_sets):
        model = model_sets[0]["sparse"]
        assert model.step_factorization(1e-3) is not model.step_factorization(2e-3)

    def test_step_factorization_rejects_bad_dt(self, model_sets):
        with pytest.raises(ConfigurationError, match="dt"):
            model_sets[0]["sparse"].step_factorization(0.0)


class TestBackendEquivalence:
    """sparse vs the dense reference within TOL_K on random floorplans."""

    def test_steady_state_single_vector(self, model_sets):
        rng = np.random.default_rng(11)
        for models in model_sets:
            n = models["dense"].n_cores
            p = rng.uniform(0.0, 8.0, n)
            ref = models["dense"].core_steady_state(p)
            assert np.abs(models["sparse"].core_steady_state(p) - ref).max() <= TOL_K

    def test_steady_state_batch(self, model_sets):
        rng = np.random.default_rng(12)
        for models in model_sets:
            n = models["dense"].n_cores
            batch = rng.uniform(0.0, 8.0, (6, n))
            ref = models["dense"].core_steady_state_batch(batch)
            got = models["sparse"].core_steady_state_batch(batch)
            assert np.abs(got - ref).max() <= TOL_K

    def test_batch_is_one_solve_of_the_rows(self, model_sets):
        rng = np.random.default_rng(13)
        model = model_sets[0]["sparse"]
        solver = SteadyStateSolver(model)
        batch = rng.uniform(0.0, 8.0, (5, model.n_cores))
        batched = solver.temperatures(batch)
        rows = np.stack([solver.temperatures(row) for row in batch])
        assert np.abs(batched - rows).max() <= TOL_K

    def test_influence_matrix(self, model_sets):
        for models in model_sets:
            ref = models["dense"].influence_matrix()
            assert np.abs(models["sparse"].influence_matrix() - ref).max() <= TOL_K

    def test_transient_trajectory(self, model_sets):
        rng = np.random.default_rng(14)
        for models in model_sets:
            n = models["dense"].n_cores
            schedule = rng.uniform(0.0, 6.0, (10, n))
            trajectories = {}
            for name, model in models.items():
                sim = TransientSimulator(model, dt=1e-3)
                trajectories[name] = np.stack(
                    [sim.step(schedule[k]) for k in range(len(schedule))]
                )
            diff = np.abs(trajectories["sparse"] - trajectories["dense"]).max()
            assert diff <= TOL_K

    def test_lockstep_boosting(self, lockstep_runs):
        # The heterogeneous 11 nm lockstep batch (capped, uncapped and
        # constant runs) takes the same decisions on every backend.
        results = {}
        for name in backend_names():
            set_default_backend(name)
            results[name] = run_transients(lockstep_runs(Chip.for_node(NODE_11NM)))
        set_default_backend(None)
        for got, ref in zip(results["sparse"], results["dense"]):
            assert np.array_equal(got.frequencies, ref.frequencies)
            assert np.abs(got.peak_temperatures - ref.peak_temperatures).max() <= TOL_K
            assert abs(got.max_temperature - ref.max_temperature) <= TOL_K
            assert np.abs(got.total_powers - ref.total_powers).max() <= TOL_K
            assert abs(got.average_power - ref.average_power) <= TOL_K

    def test_tsp_tables(self, model_sets):
        for models in model_sets:
            engines = {n: BatchedSteadyState(m) for n, m in models.items()}
            headroom = 35.0
            ref_budgets, _ = engines["dense"].tsp_table(headroom, 0.3)
            budgets, _ = engines["sparse"].tsp_table(headroom, 0.3)
            assert np.abs(budgets - ref_budgets).max() <= TOL_K
            n_cores = models["dense"].n_cores
            for m in (1, n_cores):
                ref, _ = engines["dense"].tsp_for_count(m, headroom, 0.3)
                got, _ = engines["sparse"].tsp_for_count(m, headroom, 0.3)
                assert abs(got - ref) <= TOL_K
