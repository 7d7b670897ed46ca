"""The dark-silicon estimation engine.

The paper's estimation methodology (Sections 3.1-3.2): place application
instances on the chip one after another — each instance occupying one
core per thread at a chosen v/f level — until the next instance would
violate the governing constraint (TDP or T_DTM).  Whatever cores remain
unoccupied are the *dark* cores; the engine also reports total power,
steady-state peak temperature and aggregate performance so every
downstream figure can be produced from one :class:`MappingResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.apps.workload import ApplicationInstance, Workload
from repro.chip import Chip
from repro.core.constraints import Constraint
from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.units import gips


@dataclass(frozen=True)
class PlacedInstance:
    """One mapped instance and the cores it occupies.

    Attributes:
        instance: the application instance (app, threads, frequency).
        cores: the core indices it runs on, one per thread.
        core_power: Eq. (1) power of each of its cores, in W.
    """

    instance: ApplicationInstance
    cores: tuple[int, ...]
    core_power: float


@dataclass(frozen=True)
class MappingResult:
    """Outcome of one estimation run.

    Attributes:
        chip: the chip mapped onto.
        placed: the successfully mapped instances.
        rejected: instances that could not be mapped (constraint or
            capacity), in workload order.
        core_powers: final per-core power vector, in W.
        peak_temperature: steady-state hottest-core temperature, degC.
    """

    chip: Chip
    placed: tuple[PlacedInstance, ...]
    rejected: tuple[ApplicationInstance, ...]
    core_powers: np.ndarray
    peak_temperature: float

    @property
    def n_cores(self) -> int:
        """Chip core count."""
        return self.chip.n_cores

    @property
    def active_cores(self) -> int:
        """Cores running a thread."""
        return sum(len(p.cores) for p in self.placed)

    @property
    def dark_cores(self) -> int:
        """Cores left unpowered."""
        return self.n_cores - self.active_cores

    @property
    def active_fraction(self) -> float:
        """Active cores / total cores."""
        return self.active_cores / self.n_cores

    @property
    def dark_fraction(self) -> float:
        """Dark cores / total cores — the paper's 'dark silicon amount'."""
        return self.dark_cores / self.n_cores

    @property
    def total_power(self) -> float:
        """Chip power, W."""
        return float(np.sum(self.core_powers))

    @property
    def performance(self) -> float:
        """Aggregate throughput, instructions/s."""
        return sum(p.instance.performance() for p in self.placed)

    @property
    def gips(self) -> float:
        """Aggregate throughput in GIPS (the paper's Figures 7 and 9-13)."""
        return gips(self.performance)

    @property
    def occupied(self) -> set[int]:
        """Indices of all active cores."""
        return {c for p in self.placed for c in p.cores}


def map_workload(
    chip: Chip,
    workload: Workload,
    constraint: Constraint,
    placer: Optional[Placer] = None,
    power_temperature: Optional[float] = None,
    stop_at_first_rejection: bool = True,
    power_evaluator: Optional[
        "Callable[[ApplicationInstance, Sequence[int], float], np.ndarray]"
    ] = None,
) -> MappingResult:
    """Map ``workload`` onto ``chip`` under ``constraint``.

    Instances are placed in workload order.  Per-core Eq. (1) power is
    evaluated at ``power_temperature`` (default: the chip's T_DTM, the
    conservative worst case for leakage, matching the paper's budgeting
    practice).  After tentatively adding an instance the constraint is
    checked; a violating instance is rolled back.

    Args:
        chip: the target chip.
        workload: instances with thread counts and frequencies assigned.
        constraint: the dark-silicon constraint (TDP or temperature).
        placer: position policy; defaults to contiguous placement.
        power_temperature: leakage-evaluation temperature, degC.
        stop_at_first_rejection: if True (the paper's "map until the
            constraint is reached" semantics) mapping stops at the first
            rejected instance; if False, later smaller instances may
            still be tried.
        power_evaluator: optional override computing the per-core power
            vector of an instance as
            ``evaluator(instance, cores, temperature)`` — the hook
            process variation (see :mod:`repro.variation`) plugs into.
            When the returned powers differ across an instance's cores,
            :attr:`PlacedInstance.core_power` records their mean; the
            exact vector is accumulated in
            :attr:`MappingResult.core_powers`.

    Returns:
        The final :class:`MappingResult`.
    """
    if placer is None:
        placer = ContiguousPlacer()
    t_power = chip.t_dtm if power_temperature is None else power_temperature

    core_powers = np.zeros(chip.n_cores)
    occupied: set[int] = set()
    placed: list[PlacedInstance] = []
    rejected: list[ApplicationInstance] = []

    for instance in workload:
        cores = placer.place(chip, instance.cores, occupied)
        if cores is None:
            rejected.append(instance)
            if stop_at_first_rejection:
                break
            continue
        if len(cores) != instance.cores:
            raise ConfigurationError(
                f"placer returned {len(cores)} cores for an instance "
                f"needing {instance.cores}"
            )
        if power_evaluator is None:
            powers = np.full(
                len(cores), instance.core_power(chip.node, temperature=t_power)
            )
        else:
            powers = np.asarray(
                power_evaluator(instance, cores, t_power), dtype=float
            )
            if powers.shape != (len(cores),):
                raise ConfigurationError(
                    f"power_evaluator must return one power per core, got "
                    f"shape {powers.shape} for {len(cores)} cores"
                )
        tentative = core_powers.copy()
        tentative[list(cores)] += powers
        if not constraint.admits(chip, tentative):
            rejected.append(instance)
            if stop_at_first_rejection:
                break
            continue
        core_powers = tentative
        occupied.update(cores)
        placed.append(
            PlacedInstance(
                instance=instance,
                cores=tuple(cores),
                core_power=float(powers.mean()),
            )
        )

    peak = chip.engine.peak_temperature(core_powers)
    return MappingResult(
        chip=chip,
        placed=tuple(placed),
        rejected=tuple(rejected),
        core_powers=core_powers,
        peak_temperature=peak,
    )
