"""Variability-aware placement (DaSim-style).

A variation-aware runtime has two signals: the thermal influence already
accumulated at a core (spread the heat) and the core's leakage
multiplier (prefer low-leakage silicon; leave the leaky cores dark).
The placer scores a candidate core as

    score(c) = sum_{k in taken} B[c, k] + B[c, c]
               + leakage_weight * mult_c * B[c, c]

— the thermal-spread score of
:class:`repro.mapping.patterns.ThermalSpreadPlacer` plus a term ranking
cores by their leakage factor.

With the calibrated catalogue, leakage is a single-digit share of core
power, so the mechanism's first-order payoff is *power*, not peak
temperature: on a strongly varied die, picking the low-leakage cores
saves watts under a TDP-style budget (occasionally buying an extra
instance), while the thermal term keeps the mapping spread.  Use a
larger ``leakage_weight`` for power-bound scenarios and a smaller one
when the temperature constraint binds.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence

from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.patterns import _thermal_spread
from repro.variation.map import VariationMap


class VariationAwarePlacer(Placer):
    """Greedy placer scoring thermal influence plus leakage rank.

    Args:
        variation: the die's variation map.
        leakage_weight: relative weight of the leakage term; 0 recovers
            the pure thermal-spread placer, large values approach a pure
            lowest-leakage-first ordering.
    """

    def __init__(self, variation: VariationMap, leakage_weight: float = 2.0) -> None:
        if leakage_weight < 0:
            raise ConfigurationError(
                f"leakage_weight must be non-negative, got {leakage_weight}"
            )
        self._variation = variation
        self._weight = leakage_weight

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        if self._variation.n_cores != chip.n_cores:
            raise ConfigurationError(
                f"variation map covers {self._variation.n_cores} cores, "
                f"chip has {chip.n_cores}"
            )
        # Added after B[c, c], as in score(c) above.
        mults = self._variation.leakage_multipliers
        bias = (self._weight * mults) * chip.thermal.influence_matrix().diagonal()
        return _thermal_spread(chip, n_cores, occupied, bias)
