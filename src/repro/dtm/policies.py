"""Reactive DTM policies.

A policy looks at a thermally violating set of placed instances and
returns a modified set that is one step "cooler": either an instance is
power-gated entirely (the classic emergency response) or throttled one
DVFS step (the gentler production response).  The enforcement loop in
:mod:`repro.dtm.enforcement` applies steps until the steady state is
safe.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.chip import Chip
from repro.core.estimator import PlacedInstance
from repro.errors import ConfigurationError


class DtmPolicy(abc.ABC):
    """One reactive DTM step over a list of placed instances."""

    @abc.abstractmethod
    def step(
        self, chip: Chip, placed: list[PlacedInstance]
    ) -> Optional[list[PlacedInstance]]:
        """Return a one-step-cooler instance list, or ``None`` when the
        policy has nothing left to do (enforcement then stops)."""

    @staticmethod
    def hottest_instance_index(
        chip: Chip, placed: Sequence[PlacedInstance]
    ) -> Optional[int]:
        """Index of the instance containing the hottest core."""
        if not placed:
            return None
        powers = np.zeros(chip.n_cores)
        for p in placed:
            powers[list(p.cores)] += p.core_power
        temps = chip.solver.temperatures(powers)
        hottest_core = int(np.argmax(temps))
        for i, p in enumerate(placed):
            if hottest_core in p.cores:
                return i
        # Hottest core is dark (heated by neighbours): pick the instance
        # with the highest per-core power instead.
        return max(range(len(placed)), key=lambda i: placed[i].core_power)


class GateHottest(DtmPolicy):
    """Power-gate the instance that contains the hottest core."""

    def step(
        self, chip: Chip, placed: list[PlacedInstance]
    ) -> Optional[list[PlacedInstance]]:
        index = self.hottest_instance_index(chip, placed)
        if index is None:
            return None
        return placed[:index] + placed[index + 1 :]


class ThrottleHottest(DtmPolicy):
    """Step the hottest instance's v/f one DVFS level down.

    When the instance is already at the lowest level it is power-gated —
    the escalation real DTM implementations perform.

    Args:
        frequencies: the DVFS ladder; defaults to the chip node's ladder
            at enforcement time.
    """

    def __init__(self, frequencies: Optional[Sequence[float]] = None) -> None:
        if frequencies is not None and not frequencies:
            raise ConfigurationError("frequency ladder must not be empty")
        self._frequencies = sorted(frequencies) if frequencies else None

    def step(
        self, chip: Chip, placed: list[PlacedInstance]
    ) -> Optional[list[PlacedInstance]]:
        index = self.hottest_instance_index(chip, placed)
        if index is None:
            return None
        ladder = (
            self._frequencies
            if self._frequencies is not None
            else chip.node.frequency_ladder()
        )
        victim = placed[index]
        lower = [f for f in ladder if f < victim.instance.frequency]
        if not lower:
            return placed[:index] + placed[index + 1 :]
        instance = victim.instance.with_frequency(lower[-1])
        per_core = instance.core_power(chip.node, temperature=chip.t_dtm)
        replacement = PlacedInstance(
            instance=instance, cores=victim.cores, core_power=per_core
        )
        return placed[:index] + [replacement] + placed[index + 1 :]
