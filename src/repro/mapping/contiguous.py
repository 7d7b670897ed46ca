"""Row-major contiguous placement — the naive baseline of Figure 8a.

Threads are packed onto the lowest-indexed free cores.  On the paper's
grid chips this fills the die row by row from a corner, concentrating
heat: exactly the mapping whose thermal profile Figure 8's "Pattern (a)"
shows exceeding the DTM threshold.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence

from repro.chip import Chip
from repro.mapping.base import Placer


class ContiguousPlacer(Placer):
    """First-fit, row-major placement."""

    def place(
        self, chip: Chip, n_cores: int, occupied: AbstractSet[int]
    ) -> Optional[Sequence[int]]:
        self.check_request(chip, n_cores, occupied)
        free = self.free_cores(chip, occupied)
        if len(free) < n_cores:
            return None
        return free[:n_cores]
