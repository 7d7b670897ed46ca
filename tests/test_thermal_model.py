"""ThermalModel: steady state, superposition, influence matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.tech.library import NODE_16NM
from repro.thermal.builder import build_thermal_model


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(grid_floorplan(3, 3, NODE_16NM.core_area))


class TestSteadyState:
    def test_zero_power_gives_ambient(self, model):
        temps = model.core_steady_state([0.0] * 9)
        assert np.allclose(temps, model.ambient)

    def test_positive_power_heats(self, model):
        temps = model.core_steady_state([1.0] * 9)
        assert np.all(temps > model.ambient)

    def test_batch_is_one_counted_solve(self, model, global_obs):
        model.core_steady_state_batch(np.ones((5, 9)))
        counters = global_obs.snapshot()["counters"]
        assert counters["thermal.model.solves"] == 1
        assert counters["solver.cost.rhs_columns"] == 5

    def test_linearity(self, model):
        t1 = model.core_steady_state([1.0] * 9) - model.ambient
        t2 = model.core_steady_state([2.0] * 9) - model.ambient
        assert np.allclose(t2, 2.0 * t1)

    def test_superposition(self, model):
        pa = np.zeros(9)
        pa[0] = 3.0
        pb = np.zeros(9)
        pb[8] = 2.0
        ta = model.core_steady_state(pa) - model.ambient
        tb = model.core_steady_state(pb) - model.ambient
        tab = model.core_steady_state(pa + pb) - model.ambient
        assert np.allclose(tab, ta + tb)

    def test_wrong_length_rejected(self, model):
        with pytest.raises(ConfigurationError, match="core powers"):
            model.core_steady_state([1.0] * 5)

    def test_full_vector_solve(self, model):
        full = np.zeros(model.n_nodes)
        full[model.core_indices] = 1.0
        temps = model.steady_state(full)
        assert temps.shape == (model.n_nodes,)
        assert np.all(temps >= model.ambient - 1e-9)

    def test_full_vector_wrong_length_rejected(self, model):
        with pytest.raises(ConfigurationError, match="node powers"):
            model.steady_state(np.zeros(3))


class TestInfluenceMatrix:
    def test_shape(self, model):
        assert model.influence_matrix().shape == (9, 9)

    def test_symmetric(self, model):
        b = model.influence_matrix()
        assert np.allclose(b, b.T)

    def test_entrywise_positive(self, model):
        assert np.all(model.influence_matrix() > 0)

    def test_diagonal_dominant_thermally(self, model):
        # Self-heating exceeds heating from any other single core.
        b = model.influence_matrix()
        for i in range(9):
            off = np.delete(b[i], i)
            assert b[i, i] > off.max()

    def test_predicts_steady_state(self, model):
        b = model.influence_matrix()
        powers = np.array([1.0, 0.5, 0, 0, 2.0, 0, 0, 0, 0.25])
        direct = model.core_steady_state(powers)
        via_b = model.ambient + b @ powers
        assert np.allclose(direct, via_b)

    def test_cached(self, model):
        assert model.influence_matrix() is model.influence_matrix()

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_influence_decays_with_distance(self, i, j):
        model = build_thermal_model(grid_floorplan(3, 3, NODE_16NM.core_area))
        b = model.influence_matrix()
        # Influence of a core on itself is at least its influence on any
        # other core (distance monotonicity in the weak self-vs-other
        # form, which holds for any passive network).
        assert b[i, i] >= b[i, j] - 1e-12


class TestMismatch:
    def test_core_index_count_enforced(self):
        from repro.thermal.config import PAPER_THERMAL_CONFIG
        from repro.thermal.model import ThermalModel
        from repro.thermal.rc_network import NodeSpec, RCNetwork

        fp = grid_floorplan(2, 2, NODE_16NM.core_area)
        net = RCNetwork()
        net.add_node(NodeSpec("only", 1.0, ambient_conductance=1.0))
        with pytest.raises(ConfigurationError, match="core nodes"):
            ThermalModel(net, fp, PAPER_THERMAL_CONFIG, [0])
