"""Figure 14: STC vs NTC at ISO performance (24 instances, 11 nm).

NTC runs each instance with 8 threads at a near-threshold point (1 GHz);
the STC schemes run 1 or 2 threads at the frequency matching NTC's
performance.  The paper's Observation 4 shapes, asserted by the
paper checks: NTC is the most energy-efficient scheme for thread-scalable
applications, but *loses* to STC for canneal, whose poor thread scaling
makes eight barely-utilised near-threshold cores wasteful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.parsec import PARSEC_ORDER, app_by_name
from repro.experiments.common import format_table
from repro.experiments.registry import ExperimentSpec, Param, register
from repro.io import PayloadSerializable
from repro.ntc.iso_performance import IsoPerformancePoint, iso_performance_comparison
from repro.tech.library import node_by_name
from repro.units import GIGA


@dataclass(frozen=True)
class Fig14Result(PayloadSerializable):
    """The Figure 14 grid."""

    node: str
    points: tuple[IsoPerformancePoint, ...]

    def by_app(self, app: str) -> dict:
        """``{scheme: point}`` for one application."""
        return {p.scheme: p for p in self.points if p.app == app}

    def ntc_wins(self, app: str) -> bool:
        """True if NTC has the lowest energy among feasible schemes."""
        schemes = self.by_app(app)
        ntc = schemes["ntc"]
        others = [p for s, p in schemes.items() if s != "ntc" and p.feasible]
        if not others:
            return True
        return ntc.energy_kj <= min(p.energy_kj for p in others)

    def rows(self):
        """(app, scheme, f GHz, V, region, GIPS, P W, energy kJ) rows."""
        return [
            [
                p.app,
                p.scheme,
                p.frequency / GIGA,
                round(p.voltage, 3),
                p.region.value,
                round(p.gips, 1),
                round(p.total_power, 1),
                round(p.energy_kj, 3),
                "yes" if p.feasible else "capped",
            ]
            for p in self.points
        ]

    def table(self) -> str:
        """Formatted text table."""
        return format_table(
            (
                "app",
                "scheme",
                "f [GHz]",
                "Vdd [V]",
                "region",
                "GIPS",
                "P [W]",
                "E [kJ]",
                "ISO",
            ),
            self.rows(),
        )


def run(
    node_name: str = "11nm",
    app_names: Sequence[str] = PARSEC_ORDER,
    n_instances: int = 24,
    ntc_frequency: float = 1.0 * GIGA,
) -> Fig14Result:
    """Run the Figure 14 comparison."""
    node = node_by_name(node_name)
    points = iso_performance_comparison(
        node,
        [app_by_name(n) for n in app_names],
        n_instances=n_instances,
        ntc_frequency=ntc_frequency,
    )
    return Fig14Result(node=node_name, points=tuple(points))


SPEC = register(
    ExperimentSpec(
        name="fig14",
        title="NTC many-core vs STC few-core iso-performance energy",
        module=__name__,
        runner=run,
        params=(
            Param("node_name", "str", "11nm", help="technology node"),
            Param("app_names", "json", PARSEC_ORDER, help="applications"),
            Param("n_instances", "int", 24, help="NTC instances"),
            Param(
                "ntc_frequency",
                "float",
                1.0 * GIGA,
                help="per-core NTC frequency, Hz",
            ),
        ),
        result_type=Fig14Result,
    )
)
