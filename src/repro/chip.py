"""The Chip: one technology node's manycore platform, fully assembled.

A :class:`Chip` bundles what Figure 1's tool flow produces for one
technology node — the floorplan, the thermal RC model built from it, a
steady-state solver, and the batched acceleration engine — so the
estimation engine, mapping policies and boosting simulations all share
one object (and its cached factorisations, influence matrix and TSP
tables).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.generator import floorplan_for_node, grid_floorplan
from repro.floorplan.stack import LayerStack
from repro.tech.library import chip_grid
from repro.tech.node import TechNode
from repro.thermal.builder import build_thermal_model
from repro.thermal.config import PAPER_THERMAL_CONFIG, ThermalConfig
from repro.thermal.model import ThermalModel
from repro.thermal.steady_state import SteadyStateSolver


class Chip:
    """A manycore chip at one technology node.

    Args:
        node: the technology node.
        floorplan: core placement; defaults to the paper's grid for the
            node (e.g. 10x10 at 16 nm).
        thermal_config: package configuration; defaults to the paper's
            Section 2.1 HotSpot setup.
        grid: explicit (rows, cols) when a custom floorplan is a regular
            grid (the per-layer grid for stacks); inferred from the node
            when the default floorplan is used.
        stack: a :class:`~repro.floorplan.stack.LayerStack` for a
            3D-stacked chip; mutually exclusive with ``floorplan``.
    """

    def __init__(
        self,
        node: TechNode,
        floorplan: Optional[Floorplan] = None,
        thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG,
        grid: Optional[tuple[int, int]] = None,
        stack: Optional[LayerStack] = None,
    ) -> None:
        self.node = node
        if stack is not None:
            if floorplan is not None:
                raise ConfigurationError(
                    "pass either floorplan or stack, not both"
                )
            floorplan = stack.layers[0].floorplan
        elif floorplan is None:
            floorplan = floorplan_for_node(node)
            if grid is None:
                grid = chip_grid(node)
        self.floorplan = floorplan
        self.stack = stack
        self.grid = grid
        self.thermal_config = thermal_config
        self.thermal: ThermalModel = build_thermal_model(
            stack if stack is not None else floorplan, thermal_config
        )
        self.solver = SteadyStateSolver(self.thermal)
        self._engine: Optional["BatchedSteadyState"] = None

    @classmethod
    def for_node(
        cls,
        node: TechNode,
        thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG,
    ) -> "Chip":
        """The paper's chip at ``node`` (100/198/361 cores)."""
        return cls(node, thermal_config=thermal_config)

    @classmethod
    def grid_chip(
        cls,
        node: TechNode,
        rows: int,
        cols: int,
        thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG,
    ) -> "Chip":
        """A custom ``rows x cols`` chip at ``node``'s core area."""
        return cls(
            node,
            floorplan=grid_floorplan(rows, cols, node.core_area),
            thermal_config=thermal_config,
            grid=(rows, cols),
        )

    @classmethod
    def stacked_grid(
        cls,
        node: TechNode,
        rows: int,
        cols: int,
        n_layers: int,
        thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG,
    ) -> "Chip":
        """A 3D chip: ``n_layers`` identical ``rows x cols`` grids.

        Every layer replicates the same grid floorplan; layers and
        bonding interfaces take ``thermal_config``'s die and
        ``interlayer_*`` defaults.

        Raises:
            ConfigurationError: on a non-positive layer count.
        """
        if n_layers < 1:
            raise ConfigurationError(
                f"n_layers must be >= 1, got {n_layers}"
            )
        floorplan = grid_floorplan(rows, cols, node.core_area)
        return cls(
            node,
            thermal_config=thermal_config,
            grid=(rows, cols),
            stack=thermal_config.stacked([floorplan] * n_layers),
        )

    @property
    def engine(self) -> "BatchedSteadyState":
        """The chip's batched steady-state engine, built on first use.

        One engine per chip: its influence operator and TSP tables are
        shared by every consumer (TSP, the estimation engine, the online
        simulator and its policies).
        """
        if self._engine is None:
            from repro.perf.batched import BatchedSteadyState

            self._engine = BatchedSteadyState(self.thermal)
        return self._engine

    @property
    def n_cores(self) -> int:
        """Core count (summed over every silicon layer on a 3D chip)."""
        return self.thermal.n_cores

    @property
    def n_layers(self) -> int:
        """Silicon layer count (1 for a planar chip)."""
        return self.thermal.n_layers

    @property
    def t_dtm(self) -> float:
        """DTM trigger temperature, degC."""
        return self.thermal_config.t_dtm

    @property
    def ambient(self) -> float:
        """Ambient temperature, degC."""
        return self.thermal_config.ambient

    def grid_coordinates(self, core: int) -> tuple[int, int]:
        """(row, col) of a core on a grid chip.

        On a stacked chip the flat (layer-major) index is reduced to its
        within-layer position first — every layer shares the same grid.

        Raises:
            ConfigurationError: if the chip has no grid layout or the
                index is out of range.
        """
        if self.grid is None:
            raise ConfigurationError("this chip has no regular grid layout")
        rows, cols = self.grid
        if not 0 <= core < self.n_cores:
            raise ConfigurationError(
                f"core index {core} out of range [0, {self.n_cores})"
            )
        row, col = divmod(core % (rows * cols), cols)
        return row, col
