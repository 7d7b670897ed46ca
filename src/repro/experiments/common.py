"""Shared infrastructure for the experiment modules.

Chips are cached per (node, thermal config): building the RC model and
its factorisation is cheap, but the influence matrix used by TSP and the
thermal-spread placer is worth reusing across figures.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro import obs
from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.tech.library import node_by_name
from repro.thermal.config import PAPER_THERMAL_CONFIG, ThermalConfig
from repro.units import GIGA

#: Frequencies of the Figure 5 x-axis (GHz 2.8 .. 3.6), in Hz.
FIG5_FREQUENCIES: tuple[float, ...] = tuple(
    round(f, 1) * GIGA for f in (2.8, 3.0, 3.2, 3.4, 3.6)
)


@lru_cache(maxsize=8)
def get_chip(
    node_name: str, thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG
) -> Chip:
    """The chip at the named node and package config, cached per process.

    The cache key is the full ``(node_name, thermal_config)`` pair —
    ``ThermalConfig`` is a frozen (hashable) dataclass — so callers with
    a non-default package never receive a stale default-config chip.
    """
    return Chip.for_node(node_by_name(node_name), thermal_config=thermal_config)


@lru_cache(maxsize=8)
def get_stacked_chip(
    node_name: str,
    rows: int,
    cols: int,
    n_layers: int,
    thermal_config: ThermalConfig = PAPER_THERMAL_CONFIG,
) -> Chip:
    """A 3D-stacked grid chip, cached like :func:`get_chip`.

    The ``ext_3d_*`` experiments sweep the same (node, grid, layers)
    combinations repeatedly; caching shares the influence matrix and the
    TSP tables across them.  ``n_layers = 1`` yields the degenerate
    single-layer stack (numerically identical to the planar chip).
    """
    return Chip.stacked_grid(
        node_by_name(node_name), rows, cols, n_layers,
        thermal_config=thermal_config,
    )


def experiment_span(name: str):
    """Span covering one figure/extension run (``experiment.<name>``).

    The batch runner wraps every cell it executes in one of these, so
    a profiled run attributes solver calls, cache traffic and sweep stages
    to the figure that caused them (nested spans land under
    ``experiment.<name>.sweep.<stage>`` etc.).  A no-op when the global
    registry is disabled.
    """
    return obs.span(f"experiment.{name}")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table.

    Floats are shown with 2 decimals, everything else via ``str``.
    """
    if not headers:
        raise ConfigurationError("need at least one column")

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
