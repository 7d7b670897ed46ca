#!/usr/bin/env python3
"""Dark-silicon patterning: where the dark cores sit changes the peak heat.

Reproduces the paper's Figure 8 story interactively: the same workload
(8-thread x264 instances at 3.6 GHz) is mapped once contiguously and once
with a spread pattern; the script renders both steady-state thermal maps
as ASCII heat maps and reports which mapping violates the 80 degC limit.

Run:  python examples/dark_silicon_patterning.py
"""

import numpy as np

from repro import (
    Chip,
    NODE_16NM,
    PARSEC,
    ContiguousPlacer,
    NeighbourhoodSpreadPlacer,
    PowerBudgetConstraint,
    TemperatureConstraint,
    Workload,
    estimate_dark_silicon,
    map_workload,
)
from repro.thermal.analysis import temperature_maps

#: ASCII shades from cool to hot.
SHADES = " .:-=+*#%@"


def render(grid: np.ndarray, lo: float, hi: float) -> str:
    """Render a temperature grid as an ASCII heat map."""
    span = max(hi - lo, 1e-9)
    lines = []
    for row in grid:
        cells = []
        for t in row:
            shade = SHADES[
                min(int((t - lo) / span * (len(SHADES) - 1)), len(SHADES) - 1)
            ]
            cells.append(shade * 2)
        lines.append("".join(cells))
    return "\n".join(lines)


def main() -> None:
    chip = Chip.for_node(NODE_16NM)
    app = PARSEC["x264"]
    f = chip.node.f_max
    rows, cols = chip.grid

    # Largest patterned workload that stays below T_DTM.
    patterned_fit = estimate_dark_silicon(
        chip, app, f, TemperatureConstraint(), placer=NeighbourhoodSpreadPlacer()
    )
    n = len(patterned_fit.placed)
    workload = Workload.replicate(app, n, 8, f)
    unconstrained = PowerBudgetConstraint(1e9)

    contiguous = map_workload(
        chip, workload, unconstrained, placer=ContiguousPlacer()
    )
    patterned = map_workload(
        chip, workload, unconstrained, placer=NeighbourhoodSpreadPlacer()
    )

    maps = dict(
        zip(
            ("contiguous", "patterned"),
            temperature_maps(
                chip.thermal,
                [contiguous.core_powers, patterned.core_powers],
                rows,
                cols,
            ),
        )
    )
    lo = min(m.min() for m in maps.values())
    hi = max(m.max() for m in maps.values())

    print(
        f"Workload: {n} instances of {app.name} x 8 threads "
        f"({8 * n} active cores) at {f / 1e9:.1f} GHz, "
        f"{contiguous.total_power:.0f} W total\n"
    )
    for name, result in (("contiguous", contiguous), ("patterned", patterned)):
        verdict = (
            "VIOLATES T_DTM" if result.peak_temperature > chip.t_dtm else "safe"
        )
        print(
            f"--- {name}: peak {result.peak_temperature:.1f} degC "
            f"({verdict}) ---"
        )
        print(render(maps[name], lo, hi))
        print()

    print(
        "Same cores, same power — only the *pattern* differs.  Spreading "
        "the dark cores\nbetween the active ones keeps the same workload "
        "under the DTM threshold\n(DaSim's dark-silicon patterning, paper "
        "Section 4)."
    )


if __name__ == "__main__":
    main()
