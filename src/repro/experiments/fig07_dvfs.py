"""Figure 7: DVFS per application characteristics vs nominal frequency.

Scenario 1 runs every application as 8-thread instances at the node's
nominal maximum frequency; Scenario 2 selects, per application, the
(threads, v/f) pair maximising total GIPS for the *same offered workload*
(``n_cores // 8`` instances) under the same TDP.  High-TLP applications
gain by running more, slower cores; high-ILP ones by fewer, faster
threads.  The paper reports gains up to 32 % (16 nm) and 38 % (11 nm),
with DVFS never losing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.core.constraints import PowerBudgetConstraint
from repro.core.dark_silicon import (
    best_homogeneous_configuration,
    estimate_dark_silicon,
)
from repro.experiments.common import format_table, get_chip
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.power.budget import PAPER_TDP_PESSIMISTIC
from repro.units import GIGA


@dataclass(frozen=True)
class Fig7AppResult:
    """One application's bar pair.

    Attributes:
        app: application name.
        gips_nominal: Scenario 1 performance, GIPS.
        active_nominal: Scenario 1 active cores.
        gips_dvfs: Scenario 2 performance, GIPS.
        active_dvfs: Scenario 2 active cores.
        threads_dvfs: Scenario 2 per-instance thread count.
        frequency_dvfs: Scenario 2 frequency, Hz.
    """

    app: str
    gips_nominal: float
    active_nominal: int
    gips_dvfs: float
    active_dvfs: int
    threads_dvfs: int
    frequency_dvfs: float

    @property
    def gain(self) -> float:
        """Relative Scenario 2 gain over Scenario 1."""
        return self.gips_dvfs / self.gips_nominal - 1.0


@dataclass(frozen=True)
class Fig7NodeResult:
    """One technology node's Figure 7 panel."""

    node: str
    tdp: float
    apps: tuple[Fig7AppResult, ...]

    @property
    def max_gain(self) -> float:
        """Largest per-application gain."""
        return max(a.gain for a in self.apps)


@dataclass(frozen=True)
class Fig7Result(PayloadSerializable):
    """All Figure 7 panels."""

    nodes: tuple[Fig7NodeResult, ...]

    def rows(self):
        """(node, app, s1 GIPS, s2 GIPS, gain %, s2 config) rows."""
        out = []
        for node in self.nodes:
            for a in node.apps:
                out.append(
                    [
                        node.node,
                        a.app,
                        round(a.gips_nominal, 1),
                        round(a.gips_dvfs, 1),
                        round(100 * a.gain, 1),
                        f"{a.threads_dvfs}t@{a.frequency_dvfs / GIGA:.1f}GHz",
                    ]
                )
        return out

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            ("node", "app", "S1 [GIPS]", "S2 [GIPS]", "gain [%]", "S2 config"),
            self.rows(),
        )


def run(
    node_names: Sequence[str] = ("16nm", "11nm"),
    app_names: Sequence[str] = PARSEC_ORDER,
    tdp: float = PAPER_TDP_PESSIMISTIC,
) -> Fig7Result:
    """Run both scenarios for the given nodes."""
    panels = []
    for node_name in node_names:
        chip = get_chip(node_name)
        offered_instances = chip.n_cores // 8
        apps = []
        for name in app_names:
            app = app_by_name(name)
            scenario1 = estimate_dark_silicon(
                chip, app, chip.node.f_max, PowerBudgetConstraint(tdp), threads=8
            )
            scenario2 = best_homogeneous_configuration(
                chip, app, tdp, max_instances=offered_instances
            )
            apps.append(
                Fig7AppResult(
                    app=name,
                    gips_nominal=scenario1.gips,
                    active_nominal=scenario1.active_cores,
                    gips_dvfs=scenario2.gips,
                    active_dvfs=scenario2.active_cores,
                    threads_dvfs=scenario2.threads,
                    frequency_dvfs=scenario2.frequency,
                )
            )
        panels.append(Fig7NodeResult(node=node_name, tdp=tdp, apps=tuple(apps)))
    return Fig7Result(nodes=tuple(panels))


SPEC = register(
    ExperimentSpec(
        name="fig7",
        title="Performance gain from DVFS under the temperature constraint",
        module=__name__,
        runner=run,
        params=(
            Param(
                "node_names", "json", ("16nm", "11nm"), help="technology nodes"
            ),
            Param("app_names", "json", PARSEC_ORDER, help="applications"),
            Param("tdp", "float", PAPER_TDP_PESSIMISTIC, help="TDP, W"),
        ),
        result_type=Fig7Result,
    )
)
