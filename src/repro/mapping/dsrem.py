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
   The upgrade pass takes one-level upgrades in the order of
   (-performance gain per extra watt, instance index), so the best score
   wins and the lowest index breaks ties.  Instances on the same
   (table, threads) ladder at the same level share one move, so the heap
   holds one entry per (ladder, level) group, and a group whose next
   level scores worse climbs its members in index order for as long as
   it stays the best move.  Each instance is built once, after the pass.
2. **Repair phase** — while the steady-state peak temperature exceeds
   T_DTM, step down the v/f of the instance heating the hottest core
   (removing it when already at the lowest level).
3. **Exploit phase** — while thermal headroom remains, try frequency
   upgrades (largest GIPS gain first) and additional instances that keep
   the peak temperature below T_DTM.  The upgrade candidates stay in one
   standing order keyed on (-gain, -index), the order a fresh descending
   sort would give; only an upgraded or appended instance is re-entered,
   and a rejected candidate keeps its place.

The mapping state caches the peaks of its current power vector, and
every mutation drops them, so each vector is evaluated at most once per
backend.  Every threshold test ("peak <= T_DTM", "peak > T_DTM - margin")
is read from the chip's batched engine, one influence matvec, and is
certified: only when the engine peak lies within ``_CERT`` of the limit
does the sparse solver decide.  The RC model is linear, so the two peaks
differ by rounding alone, far below ``_CERT``, and a certified test gives
the solver's answer.  The reported peak and the hottest core still come
from the solver, since near-ties between mirror-image cores are decided
by its rounding and the matvec can break them the other way.

Placement uses a dark-silicon-patterning placer by default, since DsRem
builds on the DaSim insight that spreading active cores buys headroom.

Every power and throughput figure comes from the applications'
operating-point tables (:mod:`repro.apps.operating_points`) over the
frequency grid, so instance frequencies are grid levels and the phases
step between them by index.
"""

from __future__ import annotations

import bisect
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


#: Half-width (K) of the band around a threshold in which an engine peak
#: is re-checked on the solver.  The two peaks of one power vector differ
#: by rounding only (below 1e-12 K on the paper's chips), so outside the
#: band the engine answers a threshold test as the solver would.
_CERT = 1e-9


class _State:
    """Mutable mapping state shared by the three phases.

    The occupied set, the per-core power vector and each placed
    instance's grid level (``levels``) are kept up to date by
    :meth:`add`, :meth:`replace` and :meth:`remove`.  Instances own
    disjoint cores, so assigning an instance's per-core power to its
    cores gives the same vector as summing every instance into zeros.
    The engine and solver peaks of the current vector are each computed
    at most once: every mutation drops both.
    """

    def __init__(
        self, chip: Chip, placer: Placer, tables: dict[AppProfile, OperatingPoints]
    ) -> None:
        self.chip = chip
        self.placer = placer
        self.tables = tables
        self.placed: list[PlacedInstance] = []
        self.levels: list[int] = []
        self.occupied: set[int] = set()
        self._powers = np.zeros(chip.n_cores)
        self._peak: Optional[float] = None
        self._engine_peak: Optional[float] = None

    def core_powers(self) -> np.ndarray:
        return self._powers.copy()

    def peak_temperature(self) -> float:
        """The solver's steady-state peak of the current vector."""
        if self._peak is None:
            self._peak = self.chip.solver.peak_temperature(self._powers)
        return self._peak

    def peak_at_most(self, limit: float) -> bool:
        """Whether :meth:`peak_temperature` is ``<= limit``, certified.

        The engine's peak answers unless it lies within ``_CERT`` of
        ``limit``; then the solver's peak does.
        """
        if self._peak is None:
            if self._engine_peak is None:
                self._engine_peak = self.chip.engine.peak_temperature(self._powers)
            if abs(self._engine_peak - limit) > _CERT:
                return self._engine_peak <= limit
        return self.peak_temperature() <= limit

    def point(self, index: int) -> tuple[OperatingPoints, int]:
        """The table and grid level of placed instance ``index``."""
        return self.tables[self.placed[index].instance.app], self.levels[index]

    def reserve(self, n: int) -> Optional[tuple[int, ...]]:
        """Take ``n`` cores from the placer into the occupied set."""
        cores = self.placer.place(self.chip, n, self.occupied)
        if cores is None:
            return None
        self.occupied.update(cores)
        return tuple(cores)

    def put(
        self, table: OperatingPoints, n: int, level: int, cores: tuple[int, ...]
    ) -> None:
        """Append an ``n``-thread instance of ``table`` at ``level`` on
        ``cores``, which :meth:`reserve` took."""
        instance = ApplicationInstance(
            app=table.app, threads=n, frequency=table.frequencies[level]
        )
        placed = PlacedInstance(
            instance=instance, cores=cores, core_power=table.power[n - 1][level]
        )
        self.placed.append(placed)
        self.levels.append(level)
        self._powers[list(placed.cores)] = placed.core_power
        self._peak = self._engine_peak = None

    def add(self, config: _Config) -> bool:
        cores = self.reserve(config.threads)
        if cores is None:
            return False
        self.put(config.table, config.threads, config.level, cores)
        return True

    def replace(self, index: int, level: int) -> None:
        old = self.placed[index]
        app, n = old.instance.app, old.instance.threads
        table = self.tables[app]
        instance = ApplicationInstance(
            app=app, threads=n, frequency=table.frequencies[level]
        )
        placed = PlacedInstance(
            instance=instance, cores=old.cores, core_power=table.power[n - 1][level]
        )
        self.placed[index] = placed
        self.levels[index] = level
        self._powers[list(placed.cores)] = placed.core_power
        self._peak = self._engine_peak = None

    def remove(self, index: int) -> None:
        cores = self.placed.pop(index).cores
        del self.levels[index]
        self.occupied.difference_update(cores)
        self._powers[list(cores)] = 0.0
        self._peak = self._engine_peak = None

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
        return MappingResult(
            chip=self.chip,
            placed=tuple(self.placed),
            rejected=(),
            core_powers=self.core_powers(),
            peak_temperature=self.peak_temperature(),
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
    """Every (app, threads, level) candidate, in mix, thread and grid order.

    Raises:
        ConfigurationError: when no thread option fits any app, which
            would otherwise map nothing without a word.
    """
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
            power, performance = table.power[n - 1], table.performance[n - 1]
            for level in range(len(table.frequencies)):
                configs.append(
                    _Config(table, n, level, n * power[level], performance[level])
                )
    if not configs:
        limits = ", ".join(f"{app.name} {app.max_threads}" for app in apps)
        raise ConfigurationError(
            f"threads_options {cfg.threads_options!r} exceed every "
            f"app's max_threads ({limits}): no candidate configuration"
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
    # which may be picked again.  Picks take their cores now and become
    # placed instances once the upgrade pass has set their levels.
    by_density = sorted(configs, key=lambda c: c.performance / c.power, reverse=True)
    picks: list[_Config] = []
    picked_cores: list[tuple[int, ...]] = []
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
        if start is None:
            break
        config = by_density[start]
        cores = state.reserve(config.threads)
        if cores is None:
            break
        picks.append(config)
        picked_cores.append(cores)
        remaining_power -= config.power
        free_cores -= len(cores)

    # Upgrade pass: spend leftover power on one-level frequency increases,
    # largest performance gain per extra watt first, lowest index on ties.
    # A move depends only on (table, threads, level), so each (table,
    # threads) ladder of moves is computed once per pass and shared.
    ladders: dict[tuple[OperatingPoints, int], int] = {}
    moves: list[list[Optional[tuple[float, float]]]] = []
    rungs = []
    for config in picks:
        key = (config.table, config.threads)
        if key not in ladders:
            ladders[key] = len(moves)
            moves.append([
                _upgrade_move(config.table, config.threads, level)
                for level in range(len(config.table.frequencies))
            ])
        rungs.append(ladders[key])
    levels = [config.level for config in picks]
    _climb(moves, rungs, levels, remaining_power, cfg.max_steps)
    for config, cores, level in zip(picks, picked_cores, levels):
        state.put(config.table, config.threads, level, cores)


def _climb(
    moves: list[list[Optional[tuple[float, float]]]],
    rungs: list[int],
    levels: list[int],
    remaining_power: float,
    max_steps: int,
) -> None:
    """Raise ``levels`` by up to ``max_steps`` one-level upgrades.

    Instance ``i`` climbs ladder ``moves[rungs[i]]``, whose entry at a
    level is that level's (-score, extra W) move or None.  Each step
    takes the fitting move with the least (-score, index), as a heap of
    one entry per instance would; the instances on one (ladder, level)
    share a move, so the heap holds one entry per such group, keyed on
    its lowest member.  When the group's next level scores worse and the
    move costs power, no member's next move can come first, so members
    climb in index order while their key stays below the heap's least
    and the move fits; anything else takes single steps.
    """
    members: dict[tuple[int, int], list[int]] = {}
    for i, (rung, level) in enumerate(zip(rungs, levels)):
        if moves[rung][level] is not None:
            members.setdefault((rung, level), []).append(i)
    heap: list[tuple[float, int, float, tuple[int, int]]] = []
    live: dict[tuple[int, int], tuple] = {}  # group -> its current heap entry
    # A move costing more than what remains is set aside: while upgrades
    # cost power the remainder only falls, so the move cannot fit again.
    # An upgrade that costs nothing or frees power puts them back.
    aside: set[tuple[int, int]] = set()

    def sync(group: tuple[int, int]) -> None:
        """Give ``group`` a heap entry keyed on its lowest member."""
        queue = members.get(group)
        if not queue or group in aside:
            return
        entry = live.get(group)
        if entry is None or entry[1] != queue[0]:
            score, extra = moves[group[0]][group[1]]
            live[group] = entry = (score, queue[0], extra, group)
            heapq.heappush(heap, entry)

    def top() -> Optional[tuple]:
        """The least live entry, after dropping stale ones."""
        while heap and live.get(heap[0][3]) is not heap[0]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    for group in members:
        sync(group)
    steps = max_steps
    while steps:
        while (entry := top()) is not None and entry[2] > remaining_power:
            heapq.heappop(heap)
            del live[entry[3]]
            aside.add(entry[3])
        if entry is None:
            break
        heapq.heappop(heap)
        score, _, extra, group = entry
        del live[group]
        rung, level = group
        queue = members[group]
        upper = moves[rung][level + 1]
        if extra > 0 and (upper is None or upper[0] > score):
            # The group was the least entry, so its score is at most the
            # next one's; on a tie, members below that entry's index lead.
            bound = top()
            if bound is None or score < bound[0]:
                ahead = len(queue)
            else:
                ahead = bisect.bisect_left(queue, bound[1])
            count = 0
            while count < min(steps, ahead) and extra <= remaining_power:
                remaining_power -= extra
                count += 1
        else:
            count = 1
            remaining_power -= extra
        climbed = queue[:count]
        del queue[:count]
        steps -= count
        for i in climbed:
            levels[i] = level + 1
        if extra <= 0:
            restored = list(aside)
            aside.clear()
            for other in restored:
                sync(other)
        if upper is not None:
            above = members.setdefault((rung, level + 1), [])
            above += climbed
            above.sort()
            sync((rung, level + 1))
        sync(group)


def _upgrade_move(
    table: OperatingPoints, n: int, level: int
) -> Optional[tuple[float, float]]:
    """(-score, extra W) of upgrading an ``n``-thread instance of ``table``
    from ``level`` by one level, or None if there is no such upgrade.

    The score is the performance gain per extra watt; the instance holds
    one core per thread.
    """
    if level + 1 == len(table.frequencies):
        return None
    power, performance = table.power[n - 1], table.performance[n - 1]
    extra = n * power[level + 1] - power[level] * n
    gain = performance[level + 1] - performance[level]
    if gain <= 0:
        return None
    return -(gain / max(extra, 1e-9)), extra


# -- phase 2: thermal repair ------------------------------------------


def _repair_phase(state: _State, cfg: DsRemConfig) -> None:
    chip = state.chip
    for _ in range(cfg.max_steps):
        if state.peak_at_most(chip.t_dtm + 1e-6):
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
    # The standing upgrade order: one (-gain, -index) key per instance
    # below the top level, ascending, i.e. the largest gain first and the
    # highest index on ties.  A key depends only on its instance, so only
    # an upgraded or appended instance is (re-)entered.
    order: list[tuple[float, int]] = []
    for i in range(len(state.placed)):
        _enter(state, order, i)
    for _ in range(cfg.max_steps):
        if not state.peak_at_most(chip.t_dtm - cfg.exploit_margin):
            return
        if _try_upgrade(state, order):
            continue
        if not _try_add(state, by_performance):
            return
        _enter(state, order, len(state.placed) - 1)


def _enter(state: _State, order: list[tuple[float, int]], index: int) -> None:
    """Insert placed instance ``index``'s upgrade key into ``order``."""
    table, level = state.point(index)
    if level + 1 == len(table.frequencies):
        return
    performance = table.performance[state.placed[index].instance.threads - 1]
    bisect.insort(order, (-(performance[level + 1] - performance[level]), -index))


def _try_upgrade(state: _State, order: list[tuple[float, int]]) -> bool:
    """Apply the first admissible one-step frequency upgrade in ``order``."""
    chip = state.chip
    for k, (_, neg_index) in enumerate(order):
        i = -neg_index
        level = state.levels[i]
        state.replace(i, level + 1)
        if state.peak_at_most(chip.t_dtm + 1e-6):
            del order[k]
            _enter(state, order, i)
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
        if state.peak_at_most(chip.t_dtm + 1e-6):
            return True
        state.remove(len(state.placed) - 1)
    return False
