"""Placer interface: choosing core positions for an instance's threads."""

from __future__ import annotations

import abc
import collections
import functools
from typing import AbstractSet, Callable, Optional, Sequence

import numpy as np

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


#: Most placements one chip remembers per memoised placer; the oldest
#: entry is dropped first.  The online runtime's two 11 nm streams ask
#: one chip about 3,600 and 3,000 distinct questions.
PLACEMENT_MEMO_SIZE = 8192


def memoised_placement(
    chip: Chip,
    name: str,
    n_cores: int,
    occupied: AbstractSet[int],
    place: Callable[[], Optional[Sequence[int]]],
) -> Optional[list[int]]:
    """``place()``'s answer, computed once per (``n_cores``, ``occupied``).

    Only for a placer whose answer is a pure function of (chip,
    ``n_cores``, ``occupied``): the answers are remembered on ``chip``
    under ``name``, keyed on the count and the occupied cores as packed
    bits.  The request is checked first, so a bad one raises on a
    hit too, and every call returns a fresh list.
    """
    Placer.check_request(chip, n_cores, occupied)
    memos = getattr(chip, "_placement_memos", None)
    if memos is None:
        memos = chip._placement_memos = collections.defaultdict(dict)
    memo = memos[name]
    taken = np.zeros(chip.n_cores, dtype=bool)
    taken[np.fromiter(occupied, np.intp, len(occupied))] = True
    key = (n_cores, np.packbits(taken).tobytes())
    try:
        cores = memo[key]
    except KeyError:
        cores = place()
        if len(memo) >= PLACEMENT_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = cores
    return None if cores is None else list(cores)


@functools.lru_cache(maxsize=16)
def _core_indices(n_cores: int) -> frozenset[int]:
    """Every valid core index of an ``n_cores`` chip (a subset test is
    one C-level pass, several times faster than ``min``/``max``)."""
    return frozenset(range(n_cores))
