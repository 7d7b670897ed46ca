"""Extension experiment: temperature-limited Amdahl scaling in 3D stacks.

Reproduces the qualitative result of Yavits et al. ("The Effect of
Temperature on Amdahl Law in 3D Multicore Era", PAPERS.md) on top of the
paper's TSP machinery: for 1/2/4-layer stacks of the node's die, sweep
the thread count and, at every count ``n``,

1. take the worst-case TSP budget for ``n`` active cores,
2. derate to the highest DVFS-ladder frequency whose single-thread
   (full-activity) power fits that budget, and
3. score the run with the temperature-limited extended-Amdahl model
   (:func:`repro.apps.speedup.temperature_limited_speedup`), the whole
   chip held at the thermally safe operating point.

Expected shape — the thermally limited scalability knee: at 1 layer the
speed-up grows monotonically to the full chip, while at >= 2 layers it
peaks at an interior thread count and then *falls*, because past the
knee an extra thread costs more safe frequency than its marginal Amdahl
contribution is worth.  Thread counts whose budget admits no ladder
frequency at all are reported dark (frequency 0, speed-up 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.parsec import app_by_name
from repro.apps.speedup import amdahl_speedup, temperature_limited_speedup
from repro.core.tsp import ThermalSafePower
from repro.errors import ConfigurationError, InfeasibleError
from repro.experiments.common import format_table, get_stacked_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.tech.library import chip_grid, node_by_name
from repro.units import GIGA


@dataclass(frozen=True)
class Amdahl3dRow:
    """One (layer count, thread count) cell.

    Attributes:
        layers: silicon layer count.
        threads: active thread (= core) count across the stack.
        frequency: highest thermally safe ladder frequency, Hz
            (0.0 when even the lowest ladder step exceeds the budget).
        speedup: temperature-limited extended-Amdahl speed-up over one
            thread at nominal frequency (0.0 when infeasible).
        ideal_speedup: the same thread count without the thermal
            derating (frequency scale 1.0).
    """

    layers: int
    threads: int
    frequency: float
    speedup: float
    ideal_speedup: float

    @property
    def feasible(self) -> bool:
        """Whether any ladder frequency fit the TSP budget."""
        return self.frequency > 0.0


@dataclass(frozen=True)
class Amdahl3dResult(PayloadSerializable):
    """Speed-up versus threads for every evaluated stack height."""

    node: str
    app: str
    parallel_fraction: float
    sync_overhead: float
    entries: tuple[Amdahl3dRow, ...]

    def layer_curve(self, layers: int) -> list[Amdahl3dRow]:
        """One stack height's *feasible* rows, increasing thread count."""
        curve = sorted(
            (e for e in self.entries if e.layers == layers and e.feasible),
            key=lambda e: e.threads,
        )
        if not curve:
            raise ConfigurationError(f"no feasible entries for layers={layers}")
        return curve

    def knee_threads(self, layers: int) -> int:
        """Thread count of the peak speed-up at one stack height."""
        return max(self.layer_curve(layers), key=lambda e: e.speedup).threads

    def is_monotone(self, layers: int) -> bool:
        """Whether speed-up never falls with threads (no thermal knee)."""
        speedups = [e.speedup for e in self.layer_curve(layers)]
        return all(b >= a for a, b in zip(speedups, speedups[1:]))

    def rows(self):
        """(layers, threads, f GHz, speed-up, ideal) rows."""
        return [
            [e.layers, e.threads, round(e.frequency / GIGA, 2),
             round(e.speedup, 2), round(e.ideal_speedup, 2)]
            for e in self.entries
        ]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("layers", "threads", "f_safe [GHz]", "speedup", "ideal"),
            self.rows(),
        )


def _thread_ladder(total: int) -> list[int]:
    """Powers of two up to ``total``, plus ``total`` itself."""
    ladder = []
    n = 1
    while n < total:
        ladder.append(n)
        n *= 2
    ladder.append(total)
    return ladder


def run(
    node_name: str = "16nm",
    app_name: str = "swaptions",
    parallel_fraction: float = 0.99,
    sync_overhead: float = 0.0,
    layer_counts: Sequence[int] = (1, 2, 4),
    rows: int = 0,
    cols: int = 0,
    inactive_power: float = 0.0,
) -> Amdahl3dResult:
    """Sweep temperature-limited speed-up versus threads and layers.

    Args:
        node_name: technology node of every layer.
        app_name: PARSEC profile supplying the power coefficients (the
            scaling law is pinned by ``parallel_fraction`` /
            ``sync_overhead`` so the 1-layer baseline stays classic
            Amdahl, as in Yavits et al.).
        parallel_fraction: Amdahl parallel share of the studied kernel.
        sync_overhead: extended-Amdahl ``gamma`` (0 = classic Amdahl).
        layer_counts: stack heights to evaluate.
        rows: per-layer grid rows; 0 takes the node's paper grid.
        cols: per-layer grid cols; 0 takes the node's paper grid.
        inactive_power: residual power of dark cores, W.
    """
    node = node_by_name(node_name)
    app = app_by_name(app_name)
    if rows < 1 or cols < 1:
        rows, cols = chip_grid(node)
    f_nominal = node.f_max
    entries = []
    for layers in layer_counts:
        chip = get_stacked_chip(node_name, rows, cols, layers)
        tsp = ThermalSafePower(chip, inactive_power=inactive_power)
        for threads in _thread_ladder(chip.n_cores):
            # Highest ladder frequency whose full-activity per-core
            # power fits the budget; the whole chip then runs there.
            try:
                f_safe = tsp.safe_frequency(app, threads, threads=1)
            except InfeasibleError:
                f_safe = 0.0
            speedup = (
                temperature_limited_speedup(
                    parallel_fraction,
                    threads,
                    f_safe / f_nominal,
                    sync_overhead,
                )
                if f_safe > 0.0
                else 0.0
            )
            entries.append(
                Amdahl3dRow(
                    layers=layers,
                    threads=threads,
                    frequency=f_safe,
                    speedup=speedup,
                    ideal_speedup=amdahl_speedup(
                        parallel_fraction, threads, sync_overhead
                    ),
                )
            )
    return Amdahl3dResult(
        node=node_name,
        app=app_name,
        parallel_fraction=parallel_fraction,
        sync_overhead=sync_overhead,
        entries=tuple(entries),
    )


SPEC = register(
    ExperimentSpec(
        name="ext_3d_amdahl",
        title="Temperature-limited Amdahl scaling versus 3D stack height",
        module=__name__,
        runner=run,
        params=(
            Param("node_name", "str", "16nm", help="technology node"),
            Param(
                "app_name", "str", "swaptions",
                help="profile supplying the power coefficients",
            ),
            Param(
                "parallel_fraction", "float", 0.99,
                help="Amdahl parallel share of the studied kernel",
            ),
            Param(
                "sync_overhead", "float", 0.0,
                help="extended-Amdahl gamma (0: classic Amdahl)",
            ),
            Param(
                "layer_counts",
                "json",
                (1, 2, 4),
                quick=(1, 2),
                help="stack heights to evaluate",
            ),
            Param(
                "rows", "int", 0, quick=6,
                help="per-layer grid rows (0: node default)",
            ),
            Param(
                "cols", "int", 0, quick=6,
                help="per-layer grid cols (0: node default)",
            ),
            Param(
                "inactive_power", "float", 0.0,
                help="residual power of dark cores, W",
            ),
        ),
        result_type=Amdahl3dResult,
    )
)
