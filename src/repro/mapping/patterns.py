"""Dark-silicon patterning placers (DaSim-style, paper Section 4 / Figure 8).

The DaSim insight is that *where* the dark cores sit matters: interleaving
dark cores between active ones lowers the peak temperature at identical
v/f and thread counts, which in turn lets more cores be switched on before
the DTM threshold is hit.  Three patterning strategies are provided, from
cheapest to most informed:

* :class:`CheckerboardPlacer` — fixed parity interleave on the grid;
* :class:`NeighbourhoodSpreadPlacer` — greedy minimisation of occupied
  grid neighbours;
* :class:`ThermalSpreadPlacer` — greedy minimisation of the *thermal
  influence* received from occupied cores, using the RC model's influence
  matrix (the most faithful "compute a good pattern" policy).
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence

import numpy as np

from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.mapping.base import Placer


class CheckerboardPlacer(Placer):
    """Fill one grid parity class first, then the other.

    While any core of the preferred parity is free the placer uses it, so
    up to half the chip runs with every active core fully surrounded by
    dark neighbours — the canonical dark-silicon pattern.
    """

    def __init__(self, parity: int = 0) -> None:
        if parity not in (0, 1):
            raise ConfigurationError(f"parity must be 0 or 1, got {parity}")
        self._parity = parity

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        if chip.grid is None:
            raise ConfigurationError("CheckerboardPlacer needs a grid chip")
        self.check_request(chip, n_cores, occupied)
        free = self.free_cores(chip, occupied)
        if len(free) < n_cores:
            return None

        def parity(core: int) -> int:
            row, col = chip.grid_coordinates(core)
            return (row + col) % 2

        preferred = [c for c in free if parity(c) == self._parity]
        others = [c for c in free if parity(c) != self._parity]
        return (preferred + others)[:n_cores]


class NeighbourhoodSpreadPlacer(Placer):
    """Greedy placement minimising occupied 4-neighbourhoods.

    Each core is chosen to have the fewest already-active grid neighbours
    (counting cores chosen earlier for the same instance), breaking ties
    toward the lowest index for determinism.
    """

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        if chip.grid is None:
            raise ConfigurationError(
                "NeighbourhoodSpreadPlacer needs a grid chip"
            )
        self.check_request(chip, n_cores, occupied)
        rows, cols = chip.grid
        n = rows * cols
        adjacency = self._neighbour_matrix(chip)
        taken = np.zeros(n, dtype=bool)
        taken[list(occupied)] = True
        if n - len(occupied) < n_cores:
            return None
        # scores[c] = taken 4-neighbours of c (one matvec), +inf on
        # unavailable cores so argmin (lowest index wins ties, matching
        # the scalar greedy walk) only ever selects free ones; +inf
        # absorbs the incremental neighbour updates.
        scores = adjacency @ taken
        scores[taken] = np.inf
        chosen: list[int] = []
        for _ in range(n_cores):
            best = int(scores.argmin())
            chosen.append(best)
            scores[best] = np.inf
            scores += adjacency[best]  # symmetric: the row is the column
        return chosen

    @staticmethod
    def _neighbour_matrix(chip: Chip) -> np.ndarray:
        """Dense 0/1 grid 4-neighbour matrix, cached on the chip."""
        cached = getattr(chip, "_grid_neighbour_matrix", None)
        if cached is not None:
            return cached
        rows, cols = chip.grid
        n = rows * cols
        matrix = np.zeros((n, n))
        for core in range(n):
            row, col = divmod(core, cols)
            if row > 0:
                matrix[core, core - cols] = 1.0
            if row < rows - 1:
                matrix[core, core + cols] = 1.0
            if col > 0:
                matrix[core, core - 1] = 1.0
            if col < cols - 1:
                matrix[core, core + 1] = 1.0
        chip._grid_neighbour_matrix = matrix
        return matrix


class ThermalSpreadPlacer(Placer):
    """Greedy placement minimising received thermal influence.

    Core ``j``'s score is ``sum_k B[j, k]`` over the occupied set, where
    ``B`` is the chip's steady-state influence matrix: the temperature
    rise core ``j`` would suffer if every occupied core dissipated one
    watt.  Minimising it directly targets the peak-temperature objective
    the DaSim patterning pursues.  Works on any chip (no grid needed).
    """

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        return _thermal_spread(chip, n_cores, occupied)


def _thermal_spread(
    chip: Chip,
    n_cores: int,
    occupied: AbstractSet[int],
    bias: Optional[np.ndarray] = None,
) -> Optional[list[int]]:
    """The thermal-spread greedy, shared with the variation-aware placer.

    Each pick minimises ``received[c] + B[c, c] (+ bias[c])`` over the
    free cores, where ``received = sum_{k in taken} B[:, k]`` is kept as
    one vector: seeded column by column over ``sorted(occupied)``, then
    grown by the chosen core's column after every pick.  That fixed
    order of the floating-point additions decides near-ties between
    mirror-image cores, so a placement depends only on which cores are
    occupied.  Unavailable cores score +inf, so argmin (lowest index
    wins ties) only selects free ones.
    """
    Placer.check_request(chip, n_cores, occupied)
    if chip.n_cores - len(occupied) < n_cores:
        return None
    influence = chip.thermal.influence_matrix()
    diagonal = influence.diagonal()
    # The columns of the occupied cores as C-ordered rows: a reduction
    # across rows adds them one at a time (numpy sums pairwise only
    # along the fast axis), the same as a loop of ``+=``.
    received = np.add.reduce(influence.T[sorted(occupied)], axis=0)
    mask = np.zeros(chip.n_cores)
    mask[list(occupied)] = np.inf
    chosen: list[int] = []
    for _ in range(n_cores):
        scores = received + diagonal
        if bias is not None:
            scores += bias
        scores += mask
        best = int(scores.argmin())
        chosen.append(best)
        mask[best] = np.inf
        received += influence[:, best]
    return chosen
