"""Operating-point tables: Eq. (1) power and throughput on a fixed grid.

The mapping heuristics and runtime policies choose among a small, fixed
set of operating points — thread counts 1..``max_threads`` times the
levels of a DVFS ladder — and query the same points over and over.  The
scalar :meth:`repro.apps.profile.AppProfile.core_power` rebuilds the
node-scaled :class:`repro.power.model.CorePowerModel` (coefficients,
V/f curve, leakage model and their validation) on every call.

:func:`operating_points` instead builds one table per (application,
node, evaluation temperature, frequency grid) on first use, from a
single model, and memoises it keyed by those values.  The supply voltage
and leakage of each grid level are evaluated once and shared by every
thread count; every entry is the same sum of the same terms the scalar
path evaluates, so a table lookup is bit-identical to ``core_power`` /
``instance_performance``.  A
point outside the table (a frequency off the grid, or a thread count
outside 1..``max_threads``) falls back to the scalar path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.apps.profile import AppProfile
from repro.tech.node import TechNode
from repro.units import is_gated


class OperatingPoints:
    """Per-core power and instance throughput of one app on one node.

    Attributes:
        app: the application profile.
        node: the technology node.
        temperature: leakage evaluation temperature, degC.
        frequencies: the grid, ascending and without duplicates, Hz.
        power: ``power[threads - 1][level]``, per-core Eq. (1) power, W.
        performance: ``performance[threads - 1][level]``, instance
            throughput, instructions per second.
    """

    def __init__(
        self,
        app: AppProfile,
        node: TechNode,
        temperature: float,
        frequencies: tuple[float, ...],
    ) -> None:
        self.app = app
        self.node = node
        self.temperature = temperature
        self.frequencies = frequencies
        model = app.power_model(node)
        threads = range(1, app.max_threads + 1)
        alphas = [app.utilisation(n) for n in threads]
        # Voltage and leakage depend on the level alone: evaluate them once
        # per level and sum in CorePowerModel.power's order (dynamic +
        # leakage + pind), so every entry stays equal to the scalar path.
        columns = []
        for f in frequencies:
            if is_gated(f):
                columns.append([model.inactive_power] * len(alphas))
                continue
            v = model.voltage_for(f)
            leakage = model.leakage_power(f, temperature, vdd=v)
            columns.append(
                [
                    model.dynamic_power(f, alpha, vdd=v) + leakage + model.pind
                    for alpha in alphas
                ]
            )
        self.power = tuple(
            tuple(column[k] for column in columns) for k in range(len(alphas))
        )
        self.performance = tuple(
            tuple(app.instance_performance(n, f) for f in frequencies) for n in threads
        )
        self._levels = {f: k for k, f in enumerate(frequencies)}

    def level(self, frequency: float) -> Optional[int]:
        """Grid index of ``frequency``, or None when it is off the grid."""
        return self._levels.get(frequency)

    def core_power(self, threads: int, frequency: float) -> float:
        """Per-core Eq. (1) power, W; off-table points take the scalar path."""
        level = self._levels.get(frequency)
        if level is None or not 1 <= threads <= len(self.power):
            return self.app.core_power(self.node, threads, frequency, self.temperature)
        return self.power[threads - 1][level]

    def instance_performance(self, threads: int, frequency: float) -> float:
        """Instance throughput, IPS; off-table points take the scalar path."""
        level = self._levels.get(frequency)
        if level is None or not 1 <= threads <= len(self.performance):
            return self.app.instance_performance(threads, frequency)
        return self.performance[threads - 1][level]


def operating_points(
    app: AppProfile,
    node: TechNode,
    temperature: float,
    frequencies: Optional[Sequence[float]] = None,
) -> OperatingPoints:
    """The memoised table of ``app`` on ``node`` at ``temperature``.

    Args:
        app: the application profile.
        node: the technology node.
        temperature: leakage evaluation temperature, degC.
        frequencies: the grid (default: the node's DVFS ladder); sorted
            and de-duplicated before use.

    Raises:
        InfeasibleError: if a grid level needs a voltage above the
            node's V/f curve limit.
    """
    grid = None if frequencies is None else tuple(sorted(set(frequencies)))
    return _table(app, node, temperature, grid)


@lru_cache(maxsize=512)
def _table(
    app: AppProfile,
    node: TechNode,
    temperature: float,
    grid: Optional[tuple[float, ...]],
) -> OperatingPoints:
    # None stands for the node's ladder, which is a function of the node
    # value; the runtime asks for it on every admission, so the key skips
    # rebuilding it.
    if grid is None:
        grid = tuple(sorted(set(node.frequency_ladder())))
    return OperatingPoints(app, node, temperature, grid)
