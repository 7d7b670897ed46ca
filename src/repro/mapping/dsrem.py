"""DsRem — joint thread-count / v-f selection with thermal repair.

DsRem (Khdr et al., DAC 2015, summarised in the paper's Section 4)
"jointly determines the number of active cores for each application and
their v/f levels, such that the overall performance is maximized.  [It]
first computes the optimal settings of applications under TDP, then it
heuristically modifies them, either to avoid potential thermal violations
or to exploit any available thermal headroom."

This module implements that three-phase heuristic:

1. **Budget phase** — greedy knapsack under TDP: repeatedly add the
   instance configuration (application from the mix, thread count,
   frequency) with the best performance-per-watt density that still fits
   the remaining power and cores, then upgrade frequencies with leftover
   power.  High-TLP applications naturally end up with many threads at
   moderate v/f; high-ILP applications with few threads at high v/f.
   The upgrade pass takes one-level upgrades from a heap keyed on
   (-performance gain per extra watt, instance index), so the best score
   wins and the lowest index breaks ties; it tracks each instance's grid
   level and rebuilds every upgraded instance once when it ends.
2. **Repair phase** — while the steady-state peak temperature exceeds
   T_DTM, step down the v/f of the instance heating the hottest core
   (removing it when already at the lowest level).
3. **Exploit phase** — while thermal headroom remains, try frequency
   upgrades (largest GIPS gain first) and additional instances that keep
   the peak temperature below T_DTM.

Placement uses a dark-silicon-patterning placer by default, since DsRem
builds on the DaSim insight that spreading active cores buys headroom.

Every power and throughput figure comes from the applications'
operating-point tables (:mod:`repro.apps.operating_points`) over the
frequency grid, so instance frequencies are grid levels and the phases
step between them by index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.apps.operating_points import OperatingPoints, operating_points
from repro.apps.profile import AppProfile
from repro.apps.workload import ApplicationInstance
from repro.chip import Chip
from repro.core.estimator import MappingResult, PlacedInstance
from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.patterns import ThermalSpreadPlacer


@dataclass(frozen=True)
class DsRemConfig:
    """Tuning knobs of the DsRem heuristic.

    Attributes:
        threads_options: candidate per-instance thread counts
            (default 1..8, capped by each app's max_threads).
        frequencies: candidate v/f levels (default: node ladder).
        exploit_margin: headroom (K) below T_DTM at which the exploit
            phase stops trying upgrades.
        max_steps: safety bound on upgrade/repair/exploit iterations.

    Raises:
        ConfigurationError: an empty ``threads_options`` or a thread
            count below 1, an empty ``frequencies``, a negative
            ``exploit_margin`` or a ``max_steps`` below 1.
    """

    threads_options: Optional[Sequence[int]] = None
    frequencies: Optional[Sequence[float]] = None
    exploit_margin: float = 0.25
    max_steps: int = 2000

    def __post_init__(self) -> None:
        if self.threads_options is not None and (
            not self.threads_options or min(self.threads_options) < 1
        ):
            raise ConfigurationError(
                "threads_options must be non-empty thread counts >= 1, "
                f"got {self.threads_options!r}"
            )
        if self.frequencies is not None and not self.frequencies:
            raise ConfigurationError(
                f"frequencies must be non-empty, got {self.frequencies!r}"
            )
        if not self.exploit_margin >= 0:
            raise ConfigurationError(
                f"exploit_margin must be >= 0 K, got {self.exploit_margin}"
            )
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")


class _Config(NamedTuple):
    """One candidate instance configuration of an application."""

    table: OperatingPoints
    threads: int
    level: int
    power: float  # whole instance, W
    performance: float  # instructions per second


class _State:
    """Mutable mapping state shared by the three phases.

    The occupied set and the per-core power vector are kept up to date
    by :meth:`add`, :meth:`replace` and :meth:`remove`.  Instances own
    disjoint cores, so assigning an instance's per-core power to its
    cores gives the same vector as summing every instance into zeros.
    """

    def __init__(
        self, chip: Chip, placer: Placer, tables: dict[AppProfile, OperatingPoints]
    ) -> None:
        self.chip = chip
        self.placer = placer
        self.tables = tables
        self.placed: list[PlacedInstance] = []
        self.occupied: set[int] = set()
        self._powers = np.zeros(chip.n_cores)

    def core_powers(self) -> np.ndarray:
        return self._powers.copy()

    def peak_temperature(self) -> float:
        return self.chip.solver.peak_temperature(self._powers)

    def point(self, index: int) -> tuple[OperatingPoints, int]:
        """The table and grid level of placed instance ``index``."""
        inst = self.placed[index].instance
        table = self.tables[inst.app]
        return table, table.level(inst.frequency)

    def add(self, config: _Config) -> bool:
        table, n, level = config.table, config.threads, config.level
        cores = self.placer.place(self.chip, n, self.occupied)
        if cores is None:
            return False
        instance = ApplicationInstance(
            app=table.app, threads=n, frequency=table.frequencies[level]
        )
        placed = PlacedInstance(
            instance=instance, cores=tuple(cores), core_power=table.power[n - 1][level]
        )
        self.placed.append(placed)
        self.occupied.update(placed.cores)
        self._powers[list(placed.cores)] = placed.core_power
        return True

    def replace(self, index: int, level: int) -> None:
        old = self.placed[index]
        table = self.tables[old.instance.app]
        instance = old.instance.with_frequency(table.frequencies[level])
        placed = PlacedInstance(
            instance=instance,
            cores=old.cores,
            core_power=table.power[instance.threads - 1][level],
        )
        self.placed[index] = placed
        self._powers[list(placed.cores)] = placed.core_power

    def remove(self, index: int) -> None:
        cores = self.placed.pop(index).cores
        self.occupied.difference_update(cores)
        self._powers[list(cores)] = 0.0

    def hottest_instance(self) -> Optional[int]:
        """Index of the placed instance containing the hottest core."""
        if not self.placed:
            return None
        temps = self.chip.solver.temperatures(self._powers)
        hottest_core = int(np.argmax(temps))
        for i, p in enumerate(self.placed):
            if hottest_core in p.cores:
                return i
        # The hottest core is dark (heated by neighbours): blame the
        # instance with the highest per-core power instead.
        return max(range(len(self.placed)), key=lambda i: self.placed[i].core_power)

    def result(self) -> MappingResult:
        powers = self.core_powers()
        return MappingResult(
            chip=self.chip,
            placed=tuple(self.placed),
            rejected=(),
            core_powers=powers,
            peak_temperature=self.chip.solver.peak_temperature(powers),
        )


def ds_rem(
    chip: Chip,
    apps: Sequence[AppProfile],
    tdp: float,
    placer: Optional[Placer] = None,
    config: Optional[DsRemConfig] = None,
) -> MappingResult:
    """Run DsRem for an application mix on ``chip``.

    Args:
        chip: the target chip.
        apps: the application mix (each may receive any number of
            instances, including zero).
        tdp: the TDP used by the budget phase, W.
        placer: position policy; defaults to the thermal spread placer.
        config: heuristic tuning knobs.

    Returns:
        The final thermally-safe :class:`MappingResult`.
    """
    if not apps:
        raise ConfigurationError("need at least one application in the mix")
    if tdp <= 0:
        raise ConfigurationError(f"tdp must be positive, got {tdp}")
    cfg = config or DsRemConfig()
    tables = {
        app: operating_points(app, chip.node, chip.t_dtm, cfg.frequencies)
        for app in apps
    }
    configs = _candidate_configs(apps, tables, cfg)
    state = _State(chip, placer or ThermalSpreadPlacer(), tables)

    _budget_phase(state, configs, tdp, cfg)
    _repair_phase(state, cfg)
    _exploit_phase(state, configs, cfg)
    return state.result()


def _candidate_configs(
    apps: Sequence[AppProfile],
    tables: dict[AppProfile, OperatingPoints],
    cfg: DsRemConfig,
) -> list[_Config]:
    """Every (app, threads, level) candidate, in mix, thread and grid order."""
    configs = []
    for app in apps:
        table = tables[app]
        threads_options = (
            cfg.threads_options
            if cfg.threads_options is not None
            else range(1, app.max_threads + 1)
        )
        for n in threads_options:
            if n > app.max_threads:
                continue
            for level, f in enumerate(table.frequencies):
                power = n * table.core_power(n, f)
                configs.append(
                    _Config(table, n, level, power, table.instance_performance(n, f))
                )
    return configs


# -- phase 1: greedy knapsack under TDP -------------------------------


def _budget_phase(
    state: _State, configs: list[_Config], tdp: float, cfg: DsRemConfig
) -> None:
    remaining_power = tdp
    free_cores = state.chip.n_cores

    # Density greedy: best performance per watt that still fits.  The
    # sort is stable, so equal densities keep candidate order.  Free
    # cores and remaining power only fall, so a configuration that does
    # not fit once never fits again: each scan resumes at the last pick,
    # which may be picked again.
    by_density = sorted(configs, key=lambda c: c.performance / c.power, reverse=True)
    start: Optional[int] = 0
    while True:
        start = next(
            (
                k for k in range(start, len(by_density))
                if by_density[k].threads <= free_cores
                and by_density[k].power <= remaining_power
            ),
            None,
        )
        if start is None or not state.add(by_density[start]):
            break
        added = state.placed[-1]
        remaining_power -= added.core_power * len(added.cores)
        free_cores -= len(added.cores)

    # Upgrade pass: spend leftover power on one-level frequency increases,
    # largest performance gain per extra watt first, lowest index on ties.
    # Levels are tracked here and each upgraded instance is rebuilt once
    # at the end, since a placed instance depends only on its level.
    points = [state.point(i) for i in range(len(state.placed))]
    levels = [level for _, level in points]
    heap = [
        move
        for i, (table, level) in enumerate(points)
        if (move := _upgrade_move(state, table, i, level)) is not None
    ]
    heapq.heapify(heap)
    # A move costing more than what remains is set aside: while upgrades
    # cost power the remainder only falls, so the move cannot fit again.
    # An upgrade that costs nothing or frees power puts them back.
    set_aside = []
    for _ in range(cfg.max_steps):
        while heap and heap[0][2] > remaining_power:
            set_aside.append(heapq.heappop(heap))
        if not heap:
            break
        _, i, extra = heapq.heappop(heap)
        levels[i] += 1
        remaining_power -= extra
        if extra <= 0:
            for move in set_aside:
                heapq.heappush(heap, move)
            set_aside.clear()
        move = _upgrade_move(state, points[i][0], i, levels[i])
        if move is not None:
            heapq.heappush(heap, move)
    for i, (_, level) in enumerate(points):
        if levels[i] != level:
            state.replace(i, levels[i])


def _upgrade_move(
    state: _State, table: OperatingPoints, index: int, level: int
) -> Optional[tuple[float, int, float]]:
    """(-score, index, extra W) of upgrading placed instance ``index`` from
    ``level`` by one level, or None if there is no such upgrade.

    The score is the performance gain per extra watt.
    """
    if level + 1 == len(table.frequencies):
        return None
    placed = state.placed[index]
    n = placed.instance.threads
    power, performance = table.power[n - 1], table.performance[n - 1]
    extra = n * power[level + 1] - power[level] * len(placed.cores)
    gain = performance[level + 1] - performance[level]
    if gain <= 0:
        return None
    return -(gain / max(extra, 1e-9)), index, extra


# -- phase 2: thermal repair ------------------------------------------


def _repair_phase(state: _State, cfg: DsRemConfig) -> None:
    chip = state.chip
    for _ in range(cfg.max_steps):
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return
        index = state.hottest_instance()
        if index is None:
            return
        _, level = state.point(index)
        if level > 0:
            state.replace(index, level - 1)
        else:
            state.remove(index)


# -- phase 3: exploit headroom ----------------------------------------


def _exploit_phase(state: _State, configs: list[_Config], cfg: DsRemConfig) -> None:
    chip = state.chip
    # Highest performance first; the sort is stable, so ties keep
    # candidate order.
    by_performance = sorted(configs, key=lambda c: -c.performance)
    for _ in range(cfg.max_steps):
        peak = state.peak_temperature()
        if peak > chip.t_dtm - cfg.exploit_margin:
            return
        if not _try_upgrade(state) and not _try_add(state, by_performance):
            return


def _try_upgrade(state: _State) -> bool:
    """Apply the best admissible one-step frequency upgrade, if any."""
    chip = state.chip
    candidates = []
    for i, placed in enumerate(state.placed):
        table, level = state.point(i)
        if level + 1 == len(table.frequencies):
            continue
        n = placed.instance.threads
        gain = table.performance[n - 1][level + 1] - table.performance[n - 1][level]
        candidates.append((gain, i, level))
    for gain, i, level in sorted(candidates, reverse=True):
        state.replace(i, level + 1)
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.replace(i, level)
    return False


def _try_add(state: _State, by_performance: list[_Config]) -> bool:
    """Add the best-performing instance that stays thermally safe."""
    chip = state.chip
    free = chip.n_cores - len(state.occupied)
    if free == 0:
        return False
    for config in by_performance:
        if config.threads > free or not state.add(config):
            continue
        if state.peak_temperature() <= chip.t_dtm + 1e-6:
            return True
        state.remove(len(state.placed) - 1)
    return False
