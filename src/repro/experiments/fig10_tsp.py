"""Figure 10: system performance under TSP across technology nodes.

For each node the paper fixes a dark-silicon share (20 % at 16 nm, 30 %
at 11 nm, 40 % at 8 nm), computes the worst-case TSP for the resulting
active-core count, picks per application the highest DVFS level whose
per-core Eq. (1) power satisfies the TSP budget, and reports total
performance.  The paper's headline: performance keeps increasing with
newer nodes despite the growing dark share (+60 % on average from 11 nm
to 8 nm).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional, Sequence

from repro.apps.operating_points import operating_points
from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.core.tsp import ThermalSafePower
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.perf.sweep import SweepRunner
from repro.units import GIGA, gips as to_gips

#: The paper's per-node dark-silicon percentages.
PAPER_DARK_SHARES: Mapping[str, float] = {
    "16nm": 0.20,
    "11nm": 0.30,
    "8nm": 0.40,
}


@dataclass(frozen=True)
class Fig10AppPoint:
    """One (node, application) bar.

    Attributes:
        app: application name.
        frequency: chosen DVFS level, Hz (0 when no level fits).
        per_core_budget: TSP(m) per-core budget, W.
        per_core_power: Eq. (1) power at the chosen level, W.
        gips: total performance of the active instances, GIPS.
    """

    app: str
    frequency: float
    per_core_budget: float
    per_core_power: float
    gips: float


@dataclass(frozen=True)
class Fig10NodeResult:
    """One node's Figure 10 group."""

    node: str
    dark_share: float
    active_cores: int
    tsp_per_core: float
    apps: tuple[Fig10AppPoint, ...]

    @property
    def average_gips(self) -> float:
        """Mean performance over applications."""
        return sum(a.gips for a in self.apps) / len(self.apps)


@dataclass(frozen=True)
class Fig10Result(PayloadSerializable):
    """All Figure 10 groups."""

    nodes: tuple[Fig10NodeResult, ...]

    def node(self, name: str) -> Fig10NodeResult:
        """Group of the named node."""
        return next(n for n in self.nodes if n.node == name)

    def rows(self):
        """(node, dark %, app, f GHz, TSP W, GIPS) rows."""
        out = []
        for node in self.nodes:
            for a in node.apps:
                out.append(
                    [
                        node.node,
                        round(100 * node.dark_share),
                        a.app,
                        a.frequency / GIGA,
                        round(a.per_core_budget, 2),
                        round(a.gips, 1),
                    ]
                )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("node", "dark [%]", "app", "f [GHz]", "TSP [W/core]", "GIPS"),
            self.rows(),
        )


def _node_cell(
    cell: tuple[str, float],
    app_names: Sequence[str],
    threads: int,
) -> Fig10NodeResult:
    """One (node, dark share) grid cell; the chip comes from the
    per-process cache."""
    node_name, dark = cell
    chip = get_chip(node_name)
    instances = int(round(chip.n_cores * (1.0 - dark))) // threads
    active = instances * threads
    tsp = ThermalSafePower(chip)
    budget = tsp.worst_case(active)
    apps = []
    for name in app_names:
        app = app_by_name(name)
        chosen_f = tsp.safe_frequency(app, active, threads=threads)
        chosen_p = operating_points(app, chip.node, chip.t_dtm).core_power(
            threads, chosen_f
        )
        perf = instances * app.instance_performance(threads, chosen_f)
        apps.append(
            Fig10AppPoint(
                app=name,
                frequency=chosen_f,
                per_core_budget=budget,
                per_core_power=chosen_p,
                gips=to_gips(perf),
            )
        )
    return Fig10NodeResult(
        node=node_name,
        dark_share=dark,
        active_cores=active,
        tsp_per_core=budget,
        apps=tuple(apps),
    )


def run(
    dark_shares: Optional[Mapping[str, float]] = None,
    app_names: Sequence[str] = PARSEC_ORDER,
    threads: int = 8,
) -> Fig10Result:
    """Evaluate TSP-governed performance for every node and application.

    The per-node cells run in-process; the pass's wall clock lands in
    the ``sweep.fig10_nodes`` span.
    """
    shares = dict(PAPER_DARK_SHARES if dark_shares is None else dark_shares)
    nodes = SweepRunner().map(
        list(shares.items()),
        partial(_node_cell, app_names=tuple(app_names), threads=threads),
        stage="fig10_nodes",
    )
    return Fig10Result(nodes=tuple(nodes))


SPEC = register(
    ExperimentSpec(
        name="fig10",
        title="TSP-governed performance across technology nodes",
        module=__name__,
        runner=run,
        params=(
            Param(
                "dark_shares",
                "json",
                None,
                help="per-node dark-silicon shares (null: paper values)",
            ),
            Param("app_names", "json", PARSEC_ORDER, help="applications"),
            Param("threads", "int", 8, help="threads per instance"),
        ),
        result_type=Fig10Result,
    )
)
