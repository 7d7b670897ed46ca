"""Steady-state temperature maps for the Figure 8 thermal profiles."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel


def temperature_maps(
    model: ThermalModel,
    core_power_batch: Sequence[Sequence[float]],
    rows: int,
    cols: int,
    layer: int = 0,
) -> np.ndarray:
    """Core temperatures arranged as the floorplan's ``rows x cols`` grid.

    Assumes the floorplan was produced by
    :func:`repro.floorplan.generator.grid_floorplan` (row-major core
    order), which is how all the paper's chips are built.  Renders
    Figure 8's thermal-profile comparison.  All ``k`` power vectors go
    through a single multi-right-hand-side solve against the model's
    shared factorisation.

    Args:
        core_power_batch: shape ``(k, n_cores)`` per-core powers, W
            (``n_cores`` spans every layer on a stacked model).
        layer: which silicon layer's grid to extract (default: the
            package-side layer 0).

    Returns:
        Temperatures (degC) of shape ``(k, rows, cols)``.
    """
    sl = model.layer_slice(layer)
    count = sl.stop - sl.start
    if rows * cols != count:
        raise ConfigurationError(
            f"{rows}x{cols} grid does not match {count} cores"
            + (f" in layer {layer}" if model.n_layers > 1 else "")
        )
    temps = model.core_steady_state_batch(core_power_batch)
    return temps[:, sl].reshape(-1, rows, cols)
