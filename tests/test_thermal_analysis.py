"""Thermal analysis helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan.generator import grid_floorplan
from repro.tech.library import NODE_16NM
from repro.thermal.analysis import temperature_maps
from repro.thermal.builder import build_thermal_model


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(grid_floorplan(2, 3, NODE_16NM.core_area))


class TestTemperatureMap:
    def test_shape(self, model):
        grids = temperature_maps(model, [[1.0] * 6, [2.0] * 6], rows=2, cols=3)
        assert grids.shape == (2, 2, 3)

    def test_row_major_layout(self, model):
        powers = np.zeros(6)
        powers[5] = 5.0  # row 1, col 2
        grid = temperature_maps(model, [powers], rows=2, cols=3)[0]
        assert grid[1, 2] == grid.max()

    def test_matches_single_solves(self, model):
        batch = [[1.0, 2.0, 0.5, 0.0, 3.0, 1.0], [0.0] * 5 + [4.0]]
        grids = temperature_maps(model, batch, rows=2, cols=3)
        for grid, powers in zip(grids, batch):
            np.testing.assert_allclose(
                grid.ravel(), model.core_steady_state(powers), rtol=0, atol=1e-9
            )

    def test_wrong_grid_rejected(self, model):
        with pytest.raises(ConfigurationError, match="grid"):
            temperature_maps(model, [[1.0] * 6], rows=2, cols=2)
