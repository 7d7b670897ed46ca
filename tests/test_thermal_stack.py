"""3D layer stacks: geometry, builder coupling, legacy equivalence.

The two acceptance properties of the multi-layer refactor live here:

* a **single-layer** ``LayerStack`` reproduces the legacy ``Floorplan``
  pipeline exactly (byte-identical matrices, and <= 1e-9 K agreement on
  the steady-state, transient and TSP paths under every solver backend);
* a 2-layer stack whose inter-layer conductances are **zeroed out**
  decouples into independent single-layer problems (hypothesis-driven
  over random grids and interface parameters).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from repro.errors import ConfigurationError
from repro.floorplan.floorplan import Block, Floorplan
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.geometry import Rect
from repro.floorplan.stack import (
    LayerStack,
    StackInterface,
    StackLayer,
    interface_overlaps,
)
from repro.tech.library import NODE_16NM
from repro.thermal.backends import backend_names
from repro.thermal.builder import build_thermal_model
from repro.thermal.config import PAPER_THERMAL_CONFIG
from repro.thermal.transient import TransientSimulator

CFG = PAPER_THERMAL_CONFIG


def _fp(rows: int = 3, cols: int = 3) -> Floorplan:
    return grid_floorplan(rows, cols, NODE_16NM.core_area)


def _shifted_fp(dx: float) -> Floorplan:
    """A single block displaced ``dx`` m in x (for disjoint-layer cases)."""
    side = _fp(1, 1).blocks[0].rect.width
    return Floorplan([Block("c0", Rect(x=dx, y=0.0, width=side, height=side))])


class TestStackValidation:
    """Degenerate geometry is rejected at construction (satellite 6)."""

    def test_zero_layer_thickness_rejected(self):
        with pytest.raises(ConfigurationError, match="thickness must be positive"):
            CFG.stack_layer(_fp(), "l0").__class__(
                name="bad", floorplan=_fp(), thickness=0.0,
                conductivity=100.0, specific_heat=1.75e6,
            )

    def test_negative_layer_thickness_rejected(self):
        with pytest.raises(ConfigurationError, match="'bad'.*thickness"):
            StackLayer(
                name="bad", floorplan=_fp(), thickness=-1e-6,
                conductivity=100.0, specific_heat=1.75e6,
            )

    def test_non_positive_conductivity_and_heat_rejected(self):
        for field, value in (("conductivity", 0.0), ("specific_heat", -1.0)):
            with pytest.raises(ConfigurationError, match=field):
                StackLayer(**{
                    "name": "l0", "floorplan": _fp(), "thickness": 1e-4,
                    "conductivity": 100.0, "specific_heat": 1.75e6,
                    field: value,
                })

    def test_interface_zero_thickness_rejected(self):
        with pytest.raises(ConfigurationError, match="thickness must be positive"):
            StackInterface(thickness=0.0, conductivity=4.0, specific_heat=4e6)

    def test_tsv_fraction_bounds(self):
        with pytest.raises(ConfigurationError, match="tsv_area_fraction"):
            StackInterface(
                thickness=1e-5, conductivity=4.0, specific_heat=4e6,
                tsv_area_fraction=1.0,
            )
        with pytest.raises(ConfigurationError, match="tsv_area_fraction"):
            StackInterface(
                thickness=1e-5, conductivity=4.0, specific_heat=4e6,
                tsv_area_fraction=-0.1,
            )

    def test_effective_conductivity_blends_bond_and_tsv(self):
        iface = StackInterface(
            thickness=1e-5, conductivity=4.0, specific_heat=4e6,
            tsv_area_fraction=0.25, tsv_conductivity=400.0,
        )
        assert iface.effective_conductivity == pytest.approx(
            0.75 * 4.0 + 0.25 * 400.0
        )
        no_tsv = StackInterface(
            thickness=1e-5, conductivity=4.0, specific_heat=4e6,
        )
        assert no_tsv.effective_conductivity == pytest.approx(4.0)

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one layer"):
            LayerStack([])

    def test_interface_count_mismatch_rejected(self):
        layers = [CFG.stack_layer(_fp(), f"l{k}") for k in range(2)]
        with pytest.raises(ConfigurationError, match="interfaces"):
            LayerStack(layers, [])

    def test_duplicate_layer_names_rejected(self):
        layers = [CFG.stack_layer(_fp(), "dup") for _ in range(2)]
        with pytest.raises(ConfigurationError, match="duplicate layer names"):
            LayerStack(layers, [CFG.stack_interface()])

    def test_disjoint_layers_rejected(self):
        """No overlapping block area => thermally disconnected stack."""
        side = _fp(1, 1).blocks[0].rect.width
        layers = [
            CFG.stack_layer(_shifted_fp(0.0), "l0"),
            CFG.stack_layer(_shifted_fp(10.0 * side), "l1"),
        ]
        with pytest.raises(ConfigurationError, match="no overlapping block area"):
            LayerStack(layers, [CFG.stack_interface()])

    def test_edge_contact_only_rejected(self):
        """Mere edge contact (zero-area patch) does not couple layers."""
        side = _fp(1, 1).blocks[0].rect.width
        layers = [
            CFG.stack_layer(_shifted_fp(0.0), "l0"),
            CFG.stack_layer(_shifted_fp(side), "l1"),
        ]
        with pytest.raises(ConfigurationError, match="no overlapping block area"):
            LayerStack(layers, [CFG.stack_interface()])


class TestIndexing:
    def test_flat_index_roundtrip(self):
        stack = CFG.stacked([_fp(2, 3), _fp(2, 3)])
        assert stack.n_layers == 2
        assert stack.n_blocks == 12
        assert stack.blocks_per_layer == (6, 6)
        for layer in range(2):
            for block in range(6):
                flat = stack.flat_index(layer, block)
                assert stack.layer_block(flat) == (layer, block)
        assert stack.layer_slice(0) == slice(0, 6)
        assert stack.layer_slice(1) == slice(6, 12)

    def test_out_of_range_indices_rejected(self):
        stack = CFG.stacked([_fp(2, 2)])
        with pytest.raises(ConfigurationError, match="layer index"):
            stack.layer_slice(1)
        with pytest.raises(ConfigurationError, match="block index"):
            stack.flat_index(0, 4)
        with pytest.raises(ConfigurationError, match="flat index"):
            stack.layer_block(4)


class TestInterfaceOverlaps:
    def test_identical_grids_map_identity(self):
        fp = _fp(3, 3)
        i, j, area = interface_overlaps(fp, fp)
        np.testing.assert_array_equal(i, j)
        assert i.size == 9
        np.testing.assert_allclose(
            area, [b.rect.area for b in fp.blocks], rtol=1e-12
        )

    def test_offset_grid_conserves_area(self):
        """A half-core-shifted upper layer still covers the overlap zone."""
        fp = _fp(2, 2)
        side = fp.blocks[0].rect.width
        shifted = Floorplan([
            Block(b.name, Rect(
                x=b.rect.x + 0.5 * side, y=b.rect.y,
                width=side, height=side,
            ))
            for b in fp.blocks
        ])
        i, j, area = interface_overlaps(fp, shifted)
        # The overlap region is the lower plan's extent minus half a core
        # column: 1.5 x 2 cores worth of area.
        assert area.sum() == pytest.approx(3.0 * side * side)
        assert i.size == 6


class TestDegenerateStackEquivalence:
    """One-layer LayerStack == legacy Floorplan path (satellite 3)."""

    @pytest.mark.parametrize("backend", backend_names())
    def test_matrices_byte_identical(self, backend):
        fp = _fp(3, 3)
        legacy = build_thermal_model(fp, backend=backend)
        staged = build_thermal_model(CFG.stacked([fp]), backend=backend)
        assert staged.n_nodes == legacy.n_nodes
        assert (legacy.conductance_matrix != staged.conductance_matrix).nnz == 0
        np.testing.assert_array_equal(
            legacy.capacitances, staged.capacitances
        )
        np.testing.assert_array_equal(
            legacy.core_indices, staged.core_indices
        )
        assert staged.floorplan is fp
        assert staged.n_layers == 1
        assert legacy.floorplan is fp
        assert legacy.n_layers == 1
        i, j, g = staged.interlayer_edges()
        assert i.size == 0 and j.size == 0 and g.size == 0

    @pytest.mark.parametrize("backend", backend_names())
    def test_steady_state_agreement(self, backend):
        fp = _fp(3, 3)
        legacy = build_thermal_model(fp, backend=backend)
        staged = build_thermal_model(CFG.stacked([fp]), backend=backend)
        rng = np.random.default_rng(42)
        powers = rng.uniform(0.5, 3.0, size=9)
        np.testing.assert_allclose(
            staged.core_steady_state(powers),
            legacy.core_steady_state(powers),
            atol=1e-9, rtol=0.0,
        )

    @pytest.mark.parametrize("backend", backend_names())
    def test_transient_agreement(self, backend):
        fp = _fp(3, 3)
        legacy = build_thermal_model(fp, backend=backend)
        staged = build_thermal_model(CFG.stacked([fp]), backend=backend)
        rng = np.random.default_rng(42)
        powers = rng.uniform(0.5, 3.0, size=9)

        def schedule(t, temps):
            return powers

        r_legacy = TransientSimulator(legacy, dt=1e-3).simulate(schedule, 0.05)
        r_staged = TransientSimulator(staged, dt=1e-3).simulate(schedule, 0.05)
        np.testing.assert_allclose(
            r_staged.core_temperatures, r_legacy.core_temperatures,
            atol=1e-9, rtol=0.0,
        )

    def test_tsp_agreement(self):
        from repro.chip import Chip
        from repro.core.tsp import ThermalSafePower

        planar = Chip.grid_chip(NODE_16NM, 4, 4)
        stacked = Chip.stacked_grid(NODE_16NM, 4, 4, 1)
        tsp_planar = ThermalSafePower(planar)
        tsp_stacked = ThermalSafePower(stacked)
        for m in (1, 4, 16):
            assert tsp_stacked.worst_case(m) == pytest.approx(
                tsp_planar.worst_case(m), abs=1e-9
            )


def _strip_interlayer(model):
    """The model's conductance matrix with inter-layer edges removed."""
    i, j, g = model.interlayer_edges()
    n = model.n_nodes
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([g, g, -g, -g])
    from scipy import sparse

    return (model.conductance_matrix
            + sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))


class TestMultilayerModel:
    def test_two_layer_counts_and_edges(self):
        fp = _fp(3, 3)
        model = build_thermal_model(CFG.stacked([fp, fp]))
        assert model.n_layers == 2
        assert model.n_cores == 18
        i, j, g = model.interlayer_edges()
        assert i.size == 9
        assert np.all(g > 0)
        assert model.layer_slice(1) == slice(9, 18)
        assert model.layer_slice(0) == slice(0, 9)

    def test_sink_far_layer_runs_hotter(self):
        fp = _fp(3, 3)
        model = build_thermal_model(CFG.stacked([fp, fp]))
        temps = model.core_steady_state(np.full(18, 2.0))
        t0 = temps[model.layer_slice(0)]
        t1 = temps[model.layer_slice(1)]
        assert t1.mean() > t0.mean()
        assert t1.max() > t0.max()

    def test_temperature_map_per_layer(self):
        from repro.thermal.analysis import temperature_maps

        fp = _fp(3, 3)
        model = build_thermal_model(CFG.stacked([fp, fp]))
        powers = np.full(18, 1.5)
        grid0 = temperature_maps(model, [powers], 3, 3, layer=0)[0]
        grid1 = temperature_maps(model, [powers], 3, 3, layer=1)[0]
        assert grid0.shape == grid1.shape == (3, 3)
        assert grid1.mean() > grid0.mean()

    def test_custom_layer_materials_respected(self):
        """Thinner, less conductive upper layers heat up more."""
        fp = _fp(2, 2)
        base = CFG.stack_layer(fp, "l0")
        good = dataclasses.replace(base, name="good", conductivity=150.0)
        poor = dataclasses.replace(base, name="poor", conductivity=50.0)
        iface = CFG.stack_interface()
        powers = np.full(8, 2.0)
        t_good = build_thermal_model(
            LayerStack([base, good], [iface])
        ).core_steady_state(powers)
        t_poor = build_thermal_model(
            LayerStack([base, poor], [iface])
        ).core_steady_state(powers)
        assert t_poor.max() > t_good.max()


class TestZeroedCouplingDecouples:
    """Property: zeroed inter-layer conductances => independent layers."""

    @given(
        rows=st.integers(min_value=2, max_value=4),
        cols=st.integers(min_value=2, max_value=4),
        tsv=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_layer0_recovers_single_layer_solution(self, rows, cols, tsv, seed):
        fp = grid_floorplan(rows, cols, NODE_16NM.core_area)
        cfg = dataclasses.replace(CFG, interlayer_tsv_fraction=tsv)
        stack = cfg.stacked([fp, fp])
        model = build_thermal_model(stack, cfg)
        legacy = build_thermal_model(fp, cfg)
        n0 = legacy.n_nodes

        stripped = _strip_interlayer(model).tocsr()
        stripped.eliminate_zeros()
        # Off-diagonal coupling blocks cancel exactly: the matrix is
        # block-diagonal over {legacy nodes} x {deeper-layer nodes}.
        assert abs(stripped[:n0, n0:]).sum() == 0.0  # repro-lint: disable=DS102 - exact cancellation of g - g
        assert abs(stripped[n0:, :n0]).sum() == 0.0  # repro-lint: disable=DS102 - exact cancellation of g - g

        rng = np.random.default_rng(seed)
        powers = rng.uniform(0.1, 3.0, size=len(fp))
        full = np.zeros(n0)
        full[legacy.core_indices] = powers
        delta = spsolve(stripped[:n0, :n0].tocsc(), full)
        decoupled = model.ambient + delta[legacy.core_indices]
        np.testing.assert_allclose(
            decoupled, legacy.core_steady_state(powers), atol=1e-9, rtol=0.0
        )

    def test_coupled_model_differs_from_decoupled(self):
        """Sanity: with the real interfaces in place, layer 0 *is* hotter
        than its standalone solution (the deeper layer dumps heat in)."""
        fp = _fp(3, 3)
        model = build_thermal_model(CFG.stacked([fp, fp]))
        legacy = build_thermal_model(fp)
        powers = np.full(9, 2.0)
        coupled = model.core_steady_state(np.concatenate([powers, powers]))
        standalone = legacy.core_steady_state(powers)
        assert coupled[model.layer_slice(0)].min() > standalone.max() - 1e-9
