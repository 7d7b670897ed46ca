"""Placer interface: choosing core positions for an instance's threads."""

from __future__ import annotations

import abc
import functools
from typing import AbstractSet, Optional, Sequence

from repro.chip import Chip
from repro.errors import ConfigurationError, MappingError


class PlacementError(MappingError):
    """A placer could not find positions for an instance."""


class Placer(abc.ABC):
    """Strategy object choosing which cores an instance occupies.

    Placers are stateless with respect to the mapping in progress: the
    caller passes the occupied set explicitly, so one placer instance can
    serve many mapping runs (and hypothesis-style property tests can call
    it with arbitrary occupancy states).
    """

    @abc.abstractmethod
    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        """Choose ``n_cores`` free cores for one instance.

        Args:
            chip: the target chip.
            n_cores: cores the instance needs (one per thread).
            occupied: indices already taken by earlier instances.

        Returns:
            The chosen core indices (length ``n_cores``), or ``None``
            when not enough free cores remain.

        Raises:
            ConfigurationError: ``n_cores`` is negative or ``occupied``
                holds an index outside the chip (see
                :meth:`check_request`).
        """

    @staticmethod
    def check_request(chip: Chip, n_cores: int, occupied: AbstractSet[int]) -> None:
        """Reject a negative core count or an occupied index off the chip.

        The built-in placers call this first: a negative count would
        otherwise slice a list from its end, and an index of -1 would
        alias the last core.
        """
        if n_cores < 0:
            raise ConfigurationError(f"n_cores must be non-negative, got {n_cores}")
        if not occupied <= _core_indices(chip.n_cores):
            bad = sorted(c for c in occupied if not 0 <= c < chip.n_cores)
            raise ConfigurationError(
                f"occupied cores {bad} are outside the chip's "
                f"{chip.n_cores} cores"
            )

    @staticmethod
    def free_cores(chip: Chip, occupied: AbstractSet[int]) -> list[int]:
        """All free core indices in ascending order."""
        return [i for i in range(chip.n_cores) if i not in occupied]


@functools.lru_cache(maxsize=16)
def _core_indices(n_cores: int) -> frozenset[int]:
    """Every valid core index of an ``n_cores`` chip (a subset test is
    one C-level pass, several times faster than ``min``/``max``)."""
    return frozenset(range(n_cores))
