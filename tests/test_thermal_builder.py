"""Thermal-model construction from floorplans (HotSpot-equivalent stack)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.floorplan.generator import floorplan_for_node, grid_floorplan
from repro.tech.library import NODE_8NM, NODE_11NM, NODE_16NM, NODE_22NM
from repro.thermal.builder import build_thermal_model
from repro.thermal.config import PAPER_THERMAL_CONFIG, ThermalConfig
from repro.units import mm2


@pytest.fixture(scope="module")
def model4x4():
    return build_thermal_model(grid_floorplan(4, 4, NODE_16NM.core_area))


class TestStructure:
    def test_node_count(self, model4x4):
        # 16 cores x 4 layers + 4 spreader rings + 8 sink rings.
        assert model4x4.n_nodes == 16 * 4 + 4 + 8

    def test_core_indices_are_silicon(self, model4x4):
        names = model4x4.network.node_names
        for i, idx in enumerate(model4x4.core_indices):
            assert names[idx] == f"si_{i}"

    def test_single_core_chip_builds(self):
        model = build_thermal_model(grid_floorplan(1, 1, mm2(5.1)))
        assert model.n_cores == 1
        model.network.validate()

    def test_non_square_grid_builds(self):
        model = build_thermal_model(grid_floorplan(2, 5, mm2(2.7)))
        assert model.n_cores == 10


class TestPhysicalConsistency:
    def test_total_convection_conductance(self, model4x4):
        """Parallel combination of sink ambient paths ~ 1/0.1 K/W.

        Slightly below 10 W/K because each path also includes half the
        sink thickness in series.
        """
        total = model4x4.network.ambient_conductances().sum()
        assert 9.0 <= total <= 10.0

    @pytest.mark.parametrize(
        "node,layers",
        [(NODE_16NM, 1), (NODE_11NM, 1), (NODE_8NM, 1), (NODE_16NM, 2)],
        ids=["16nm", "11nm", "8nm", "16nm-2layer"],
    )
    def test_sink_ambient_paths_sum_exactly(self, node, layers):
        """Every sink node's path to ambient is half the sink thickness in
        series with its area share of the convection resistance, g_i =
        A_i / (t_snk / (2 k_m) + R_conv A_sink), and the sink nodes tile
        the sink, so the paths sum to A_sink / (t_snk / (2 k_m) + R_conv
        A_sink), A_sink = sink_side^2."""
        cfg = PAPER_THERMAL_CONFIG
        floorplan = floorplan_for_node(node)
        model = build_thermal_model(
            floorplan if layers == 1 else cfg.stacked([floorplan] * layers)
        )
        area = cfg.sink_side**2
        expected = area / (
            cfg.sink_thickness / (2.0 * cfg.metal_conductivity)
            + cfg.convection_resistance * area
        )
        total = model.network.ambient_conductances().sum()
        assert total == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_sink_capacitance_includes_convection(self, model4x4):
        cfg = PAPER_THERMAL_CONFIG
        caps = model4x4.network.capacitances()
        names = model4x4.network.node_names
        sink_caps = sum(
            c for c, n in zip(caps, names) if n.startswith("snk")
        )
        metal = cfg.metal_specific_heat * cfg.sink_side**2 * cfg.sink_thickness
        assert sink_caps == pytest.approx(metal + cfg.convection_capacitance, rel=1e-6)

    def test_spreader_ring_area_conservation(self, model4x4):
        """Spreader blocks + rings tile the full 3x3 cm spreader."""
        cfg = PAPER_THERMAL_CONFIG
        caps = model4x4.network.capacitances()
        names = model4x4.network.node_names
        spr_caps = sum(c for c, n in zip(caps, names) if n.startswith("spr"))
        expected = (
            cfg.metal_specific_heat * cfg.spreader_side**2 * cfg.spreader_thickness
        )
        assert spr_caps == pytest.approx(expected, rel=1e-6)

    def test_die_capacitance(self, model4x4):
        cfg = PAPER_THERMAL_CONFIG
        caps = model4x4.network.capacitances()
        names = model4x4.network.node_names
        si_caps = sum(c for c, n in zip(caps, names) if n.startswith("si_"))
        die_area = 16 * NODE_16NM.core_area
        assert si_caps == pytest.approx(
            cfg.silicon_specific_heat * die_area * cfg.die_thickness, rel=1e-6
        )

    def test_network_validates(self, model4x4):
        model4x4.network.validate()


class TestBoundaries:
    def test_die_larger_than_spreader_rejected(self):
        # 10x10 grid of 22 nm cores is 31 mm wide > 30 mm spreader.
        with pytest.raises(ConfigurationError, match="spreader"):
            build_thermal_model(grid_floorplan(10, 10, NODE_22NM.core_area))

    def test_paper_22nm_chip_fits(self):
        # The 7x7 22 nm chip (21.7 mm) fits.
        model = build_thermal_model(grid_floorplan(7, 7, NODE_22NM.core_area))
        assert model.n_cores == 49

    def test_custom_config_respected(self):
        cfg = ThermalConfig(ambient=30.0)
        model = build_thermal_model(grid_floorplan(2, 2, mm2(5.1)), cfg)
        assert model.ambient == 30.0


class TestThermalBehaviour:
    def test_centre_hotter_than_corner_under_uniform_power(self):
        model = build_thermal_model(grid_floorplan(5, 5, mm2(5.1)))
        temps = model.core_steady_state([2.0] * 25)
        centre = temps[12]
        corner = temps[0]
        assert centre > corner

    def test_symmetry_of_symmetric_grid(self):
        model = build_thermal_model(grid_floorplan(3, 3, mm2(5.1)))
        temps = model.core_steady_state([1.0] * 9)
        # All four corners identical by symmetry.
        assert temps[0] == pytest.approx(temps[2], rel=1e-9)
        assert temps[0] == pytest.approx(temps[6], rel=1e-9)
        assert temps[0] == pytest.approx(temps[8], rel=1e-9)

    def test_heating_one_core_warms_neighbours_more_than_far_cores(self):
        model = build_thermal_model(grid_floorplan(4, 4, mm2(5.1)))
        powers = [0.0] * 16
        powers[0] = 5.0
        temps = model.core_steady_state(powers)
        assert temps[0] > temps[1] > temps[15]
