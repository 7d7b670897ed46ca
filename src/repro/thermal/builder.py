"""Floorplan -> RC network construction (HotSpot block-model equivalent).

The package stack is modelled with one RC node per core per layer plus
peripheral ring nodes for the parts of the spreader and sink that extend
beyond the die:

* ``si_<i>``   — silicon block of core ``i`` (power input);
* ``tim_<i>``  — interface material under core ``i``;
* ``spr_<i>``  — heat-spreader column under core ``i``;
* ``snk_<i>``  — heat-sink column under core ``i`` (convects to ambient);
* ``spr_ring_{n,s,e,w}`` — spreader periphery beyond the die;
* ``snk_ring_in_{n,s,e,w}`` — sink region above the spreader periphery;
* ``snk_ring_out_{n,s,e,w}`` — sink region beyond the spreader extent.

Conductances follow the standard compact-model formulas: vertical
resistance between stacked blocks is the series sum of the two half
thicknesses over the shared area, ``R = t1/(2 k1 A) + t2/(2 k2 A)``;
lateral resistance between abutting blocks of one layer is the
centre-to-centre distance over conductivity times the shared cross
section, ``R = d / (k t L)``.  The convection resistance (0.1 K/W for the
whole sink) and convection capacitance (140.4 J/K) are distributed over
the sink nodes in proportion to their area, so their parallel/parallel
combination recovers the configured totals exactly.

The die is centred on the spreader, the spreader on the sink — the
paper's (and HotSpot's) default packaging.

3D stacks (:class:`repro.floorplan.stack.LayerStack`) add one silicon
node per block per extra layer, named ``l<k>_si_<i>`` for layer ``k >= 1``
(layer 0 keeps the legacy ``si_<i>`` names and carries the package).
Adjacent layers couple through their bonding interface: vertical
resistances over the projected block-overlap areas, with the interface
conducting as bonding material and TSVs in parallel.  See
``docs/thermal_model.md``, section "3D stacks".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.stack import LayerStack, interface_overlaps
from repro.thermal.backends import SolverBackend
from repro.thermal.config import PAPER_THERMAL_CONFIG, ThermalConfig
from repro.thermal.model import ThermalModel
from repro.thermal.rc_network import NodeSpec, RCNetwork
from repro.units import MILLI

#: Geometric tolerance (m) for "block edge lies on the die boundary".
_EDGE_TOL = 1e-9

#: Bulk-edge tag of the vertical conductances crossing a bonding
#: interface between stacked silicon layers.
INTERLAYER_TAG = "interlayer"

_SIDES = ("n", "s", "e", "w")


@dataclass(frozen=True)
class _Ring:
    """One peripheral ring segment of the spreader or sink.

    Attributes:
        side: ``"n"``/``"s"``/``"e"``/``"w"``.
        area: segment area in m^2.
        width: radial extent (distance from inner to outer edge), in m.
        inner_length: length of the boundary shared with the inner
            region, in m.
    """

    side: str
    area: float
    width: float
    inner_length: float


def _ring_segments(
    inner_w: float, inner_h: float, outer_side: float
) -> dict[str, _Ring]:
    """Split the annulus between a centred inner_w x inner_h rectangle and
    an outer_side x outer_side square into N/S/E/W segments.

    N and S take the full outer width; E and W take the inner height —
    the same partition HotSpot's package model uses.  Segments with
    (near-)zero area are omitted.
    """
    rings: dict[str, _Ring] = {}
    ns_width = 0.5 * (outer_side - inner_h)
    ew_width = 0.5 * (outer_side - inner_w)
    if ns_width > _EDGE_TOL:
        for side in ("n", "s"):
            rings[side] = _Ring(
                side=side,
                area=outer_side * ns_width,
                width=ns_width,
                inner_length=inner_w,
            )
    if ew_width > _EDGE_TOL:
        for side in ("e", "w"):
            rings[side] = _Ring(
                side=side,
                area=inner_h * ew_width,
                width=ew_width,
                inner_length=inner_h,
            )
    return rings


def _boundary_cores(floorplan: Floorplan) -> dict[str, list[tuple[int, float, float]]]:
    """Cores whose rectangle touches each die-bounding-box side.

    Returns, per side, tuples ``(core_index, edge_length,
    centre_to_boundary_distance)``.
    """
    x0 = min(b.rect.x for b in floorplan.blocks)
    y0 = min(b.rect.y for b in floorplan.blocks)
    x1 = max(b.rect.x2 for b in floorplan.blocks)
    y1 = max(b.rect.y2 for b in floorplan.blocks)
    out: dict[str, list[tuple[int, float, float]]] = {s: [] for s in _SIDES}
    for i, block in enumerate(floorplan.blocks):
        r = block.rect
        cx, cy = r.center
        if abs(r.y2 - y1) <= _EDGE_TOL:
            out["n"].append((i, r.width, y1 - cy))
        if abs(r.y - y0) <= _EDGE_TOL:
            out["s"].append((i, r.width, cy - y0))
        if abs(r.x2 - x1) <= _EDGE_TOL:
            out["e"].append((i, r.height, x1 - cx))
        if abs(r.x - x0) <= _EDGE_TOL:
            out["w"].append((i, r.height, cx - x0))
    return out


def as_layer_stack(
    source: Union[Floorplan, LayerStack],
    config: ThermalConfig = PAPER_THERMAL_CONFIG,
) -> LayerStack:
    """Normalise the builder's input to a :class:`LayerStack`.

    A bare :class:`Floorplan` becomes the degenerate single-layer stack
    with ``config``'s die material — the exact model the legacy
    single-layer pipeline built.
    """
    if isinstance(source, LayerStack):
        return source
    if isinstance(source, Floorplan):
        return config.stacked([source])
    raise ConfigurationError(
        f"expected a Floorplan or LayerStack, got {type(source).__name__}"
    )


def build_thermal_model(
    floorplan: Union[Floorplan, LayerStack],
    config: ThermalConfig = PAPER_THERMAL_CONFIG,
    backend: Union[None, str, SolverBackend] = None,
) -> ThermalModel:
    """Assemble the RC model of a die (stack) inside ``config``'s package.

    Args:
        floorplan: the die floorplan (one block per core), or a
            :class:`~repro.floorplan.stack.LayerStack` of floorplans for
            a 3D-stacked chip.  Layer 0 is the package-side layer: it
            carries the TIM/spreader/sink stack; deeper layers couple to
            it through their bonding interfaces only.
        config: package geometry and material properties.
        backend: solver backend for the resulting model's factorisations;
            ``None`` selects the process default.

    Raises:
        ConfigurationError: if any layer does not fit on the spreader.
    """
    stack = as_layer_stack(floorplan, config)
    base = stack.layers[0]
    floorplan = base.floorplan
    die_w = floorplan.width
    die_h = floorplan.height
    if die_w > config.spreader_side + _EDGE_TOL or die_h > config.spreader_side + _EDGE_TOL:
        raise ConfigurationError(
            f"die ({die_w / MILLI:.1f} x {die_h / MILLI:.1f} mm) exceeds the "
            f"heat spreader ({config.spreader_side / MILLI:.1f} mm square)"
        )
    for layer in stack.layers[1:]:
        if (
            layer.floorplan.width > config.spreader_side + _EDGE_TOL
            or layer.floorplan.height > config.spreader_side + _EDGE_TOL
        ):
            raise ConfigurationError(
                f"layer {layer.name!r} "
                f"({layer.floorplan.width / MILLI:.1f} x "
                f"{layer.floorplan.height / MILLI:.1f} mm) exceeds the "
                f"heat spreader ({config.spreader_side / MILLI:.1f} mm square)"
            )

    net = RCNetwork()
    n_cores = len(floorplan)
    sink_area_total = config.sink_side**2

    spr_rings = _ring_segments(die_w, die_h, config.spreader_side)
    snk_in_rings = {
        side: ring for side, ring in _ring_segments(die_w, die_h, config.spreader_side).items()
    }
    snk_out_rings = _ring_segments(
        config.spreader_side, config.spreader_side, config.sink_side
    )

    # Layer-0 silicon properties come from the stack (for a bare
    # floorplan these are exactly config's die values, so the assembled
    # matrices are bit-identical to the legacy single-layer build).
    k_si = base.conductivity
    k_tim = config.tim_conductivity
    k_m = config.metal_conductivity
    t_die = base.thickness
    t_tim = config.tim_thickness
    t_spr = config.spreader_thickness
    t_snk = config.sink_thickness

    def sink_ambient_conductance(area):
        """Conductance from a sink node of ``area`` (a float, or an array
        of areas) to ambient: half the sink thickness in series with the
        node's convection share."""
        r_half = 0.5 * t_snk / (k_m * area)
        r_conv = config.convection_resistance * sink_area_total / area
        return 1.0 / (r_half + r_conv)

    def sink_capacitance(area: float) -> float:
        """Sink material capacitance plus this node's convection share."""
        share = area / sink_area_total
        return (
            config.metal_specific_heat * area * t_snk
            + config.convection_capacitance * share
        )

    # --- nodes: per-core columns ------------------------------------
    # Per-core quantities are computed as whole arrays; the node loop
    # only names the nodes and collects their indices for the bulk edge
    # inserts below.
    areas = np.array([block.rect.area for block in floorplan.blocks])
    si_cap = base.specific_heat * areas * t_die
    tim_cap = config.tim_specific_heat * areas * t_tim
    spr_cap = config.metal_specific_heat * areas * t_spr
    snk_cap = (
        config.metal_specific_heat * areas * t_snk
        + config.convection_capacitance * areas / sink_area_total
    )
    snk_amb = sink_ambient_conductance(areas)
    si_idx = np.empty(n_cores, dtype=np.intp)
    tim_idx = np.empty(n_cores, dtype=np.intp)
    spr_idx = np.empty(n_cores, dtype=np.intp)
    snk_idx = np.empty(n_cores, dtype=np.intp)
    for i in range(n_cores):
        si_idx[i] = net.add_node(NodeSpec(f"si_{i}", si_cap[i]))
        tim_idx[i] = net.add_node(NodeSpec(f"tim_{i}", tim_cap[i]))
        spr_idx[i] = net.add_node(NodeSpec(f"spr_{i}", spr_cap[i]))
        snk_idx[i] = net.add_node(
            NodeSpec(f"snk_{i}", snk_cap[i], ambient_conductance=snk_amb[i])
        )

    # --- nodes: peripheral rings ------------------------------------
    for side, ring in spr_rings.items():
        net.add_node(
            NodeSpec(
                f"spr_ring_{side}",
                config.metal_specific_heat * ring.area * t_spr,
            )
        )
    for side, ring in snk_in_rings.items():
        net.add_node(
            NodeSpec(
                f"snk_ring_in_{side}",
                sink_capacitance(ring.area),
                ambient_conductance=sink_ambient_conductance(ring.area),
            )
        )
    for side, ring in snk_out_rings.items():
        net.add_node(
            NodeSpec(
                f"snk_ring_out_{side}",
                sink_capacitance(ring.area),
                ambient_conductance=sink_ambient_conductance(ring.area),
            )
        )

    # --- vertical conduction within each core column -----------------
    net.add_resistances(
        si_idx,
        tim_idx,
        0.5 * t_die / (k_si * areas) + 0.5 * t_tim / (k_tim * areas),
    )
    net.add_resistances(
        tim_idx,
        spr_idx,
        0.5 * t_tim / (k_tim * areas) + 0.5 * t_spr / (k_m * areas),
    )
    net.add_resistances(
        spr_idx,
        snk_idx,
        0.5 * t_spr / (k_m * areas) + 0.5 * t_snk / (k_m * areas),
    )

    # --- lateral conduction between abutting core columns ------------
    adj_i, adj_j, shared = floorplan.adjacency_arrays()
    if adj_i.size:
        centers = np.array(floorplan.centers())
        delta = centers[adj_i] - centers[adj_j]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        for layer_idx, k, t in (
            (si_idx, k_si, t_die),
            (tim_idx, k_tim, t_tim),
            (spr_idx, k_m, t_spr),
            (snk_idx, k_m, t_snk),
        ):
            net.add_resistances(
                layer_idx[adj_i], layer_idx[adj_j], dist / (k * t * shared)
            )

    # --- boundary cores to spreader / sink rings ---------------------
    boundary = _boundary_cores(floorplan)
    for side in _SIDES:
        spr_ring = spr_rings.get(side)
        if spr_ring is None:
            continue
        for i, edge_len, to_boundary in boundary[side]:
            dist = to_boundary + 0.5 * spr_ring.width
            net.add_resistance(
                f"spr_{i}", f"spr_ring_{side}", dist / (k_m * t_spr * edge_len)
            )
            net.add_resistance(
                f"snk_{i}", f"snk_ring_in_{side}", dist / (k_m * t_snk * edge_len)
            )

    # --- ring stacking and ring-to-ring conduction -------------------
    for side, ring in spr_rings.items():
        net.add_resistance(
            f"spr_ring_{side}",
            f"snk_ring_in_{side}",
            0.5 * t_spr / (k_m * ring.area) + 0.5 * t_snk / (k_m * ring.area),
        )
    for side, outer in snk_out_rings.items():
        inner = snk_in_rings.get(side)
        if inner is None:
            continue
        dist = 0.5 * inner.width + 0.5 * outer.width
        # The boundary between inner and outer sink rings is the spreader
        # edge on this side.
        net.add_resistance(
            f"snk_ring_in_{side}",
            f"snk_ring_out_{side}",
            dist / (k_m * t_snk * config.spreader_side),
        )

    # --- deeper stack layers (3D): silicon + bonding interfaces ------
    # Everything above is byte-for-byte the legacy single-layer build;
    # additional layers only *append* nodes and edges, so a one-layer
    # stack reproduces the legacy model exactly.  Layer k couples to
    # layer k-1 through vertical conductances over the projected block
    # overlap areas: half the silicon thickness on each side in series
    # with the bonding layer at its TIM/TSV-parallel conductivity.
    layer_si_idx = [si_idx]
    if stack.n_layers > 1:
        prev_layer = base
        prev_idx = si_idx
        for li in range(1, stack.n_layers):
            layer = stack.layers[li]
            iface = stack.interfaces[li - 1]
            fp = layer.floorplan
            ov_i, ov_j, ov_area = interface_overlaps(prev_layer.floorplan, fp)
            areas_k = np.array([block.rect.area for block in fp.blocks])
            cap_k = layer.specific_heat * areas_k * layer.thickness
            # The bonding layer's heat capacitance is lumped onto the
            # sink-far silicon nodes it feeds (steady state is
            # unaffected; transients see the interface's thermal mass).
            np.add.at(
                cap_k, ov_j, iface.specific_heat * iface.thickness * ov_area
            )
            idx_k = np.empty(len(fp), dtype=np.intp)
            for i in range(len(fp)):
                idx_k[i] = net.add_node(NodeSpec(f"l{li}_si_{i}", cap_k[i]))
            adj_i, adj_j, shared = fp.adjacency_arrays()
            if adj_i.size:
                centers = np.array(fp.centers())
                delta = centers[adj_i] - centers[adj_j]
                dist = np.hypot(delta[:, 0], delta[:, 1])
                net.add_resistances(
                    idx_k[adj_i],
                    idx_k[adj_j],
                    dist / (layer.conductivity * layer.thickness * shared),
                )
            r_vertical = (
                0.5 * prev_layer.thickness / (prev_layer.conductivity * ov_area)
                + iface.thickness / (iface.effective_conductivity * ov_area)
                + 0.5 * layer.thickness / (layer.conductivity * ov_area)
            )
            net.add_resistances(
                prev_idx[ov_i], idx_k[ov_j], r_vertical, tag=INTERLAYER_TAG
            )
            layer_si_idx.append(idx_k)
            prev_layer = layer
            prev_idx = idx_k

    core_indices = (
        si_idx if len(layer_si_idx) == 1 else np.concatenate(layer_si_idx)
    )
    return ThermalModel(net, stack, config, core_indices, backend=backend)
