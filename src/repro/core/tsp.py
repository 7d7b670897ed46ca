"""Thermal Safe Power (TSP) — Section 5, after Pagani et al. CODES+ISSS'14.

TSP replaces the single-number TDP with a *function of the active-core
count*: ``TSP(m)`` is the per-core power budget such that, when ``m``
active cores each consume at most ``TSP(m)`` watts, no core on the chip
exceeds the DTM threshold — for *any* placement of those ``m`` cores
(worst-case TSP) or for one *given* placement (per-mapping TSP).

With the steady-state influence matrix ``B`` (``T = T_amb + B P``), the
temperature of core ``i`` under an active set ``A`` at uniform active
power ``P`` and inactive power ``P_inact`` is

    T_i = T_amb + P * sum_{j in A} B[i, j] + P_inact * sum_{j not in A} B[i, j]

so the safe per-core budget of a given mapping is

    TSP_A = min_i (T_DTM - T_amb - inact_i) / (sum_{j in A} B[i, j])

The worst case over mappings is attained by thermally concentrated ones;
following the TSP paper's heuristic, a candidate worst mapping is built
around every possible "centre" core (the ``m`` cores with the largest
influence on the centre), and the minimum budget over all candidates is
kept.  The heavy lifting lives in the chip's shared
:class:`repro.perf.batched.BatchedSteadyState` engine: the whole
``TSP(1..n)`` table is one incremental pass (each count adds one member
row per centre, then min-reduces — O(n^3) arithmetic rather than
O(n^4)), cached per ``(headroom, inactive power)``.  A single count is
read from that table, so every calculator bound to the same chip gets
the same budget and mapping whatever it asked for first.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.apps.operating_points import operating_points
from repro.chip import Chip
from repro.errors import ConfigurationError, InfeasibleError
from repro.units import F_GATED, is_gated


class ThermalSafePower:
    """TSP calculator bound to one chip.

    Args:
        chip: the chip (provides the influence matrix, ambient and T_DTM).
        inactive_power: residual power of dark cores, in W.
        t_dtm: threshold override, degC; defaults to the chip's.
    """

    def __init__(
        self,
        chip: Chip,
        inactive_power: float = 0.0,
        t_dtm: Optional[float] = None,
    ) -> None:
        if not (math.isfinite(inactive_power) and inactive_power >= 0):
            raise ConfigurationError(
                f"inactive_power must be finite and non-negative, got {inactive_power}"
            )
        self._chip = chip
        self._engine = chip.engine
        self._b = self._engine.influence
        self._inactive_power = inactive_power
        self._t_dtm = chip.t_dtm if t_dtm is None else t_dtm
        if self._t_dtm <= chip.ambient:
            raise ConfigurationError(
                f"T_DTM ({self._t_dtm}) must exceed ambient ({chip.ambient})"
            )
        self._safe_frequencies: dict[tuple, float] = {}

    @property
    def chip(self) -> Chip:
        """The bound chip."""
        return self._chip

    @property
    def headroom(self) -> float:
        """Temperature budget ``T_DTM - T_amb``, in K."""
        return self._t_dtm - self._chip.ambient

    def for_mapping(self, active: Sequence[int]) -> float:
        """Per-active-core safe power (W) for one specific mapping.

        Args:
            active: indices of the active cores (non-empty, unique).

        Raises:
            InfeasibleError: if the inactive cores' residual power alone
                already drives some core past T_DTM.
        """
        active_idx = self._check_active(active)
        b = self._b
        mask = np.zeros(self._chip.n_cores, dtype=bool)
        mask[active_idx] = True
        headroom = self.headroom
        if self._inactive_power > 0:
            # Dark cores at zero power add no heat; skip the gather.
            headroom = headroom - self._inactive_power * b[:, ~mask].sum(axis=1)
        budgets = headroom / b[:, mask].sum(axis=1)
        result = float(np.min(budgets))
        if result <= 0:
            raise InfeasibleError(
                "inactive-core power alone already violates T_DTM"
            )
        return result

    def worst_case(self, m: int) -> float:
        """Worst-case per-core TSP(m) over all ``m``-core mappings (W).

        Read from the engine's shared all-counts table.
        """
        self._check_m(m)
        budget, _ = self._engine.tsp_for_count(
            m, self.headroom, self._inactive_power
        )
        if budget <= 0:
            raise InfeasibleError(
                "inactive-core power alone already violates T_DTM"
            )
        # The distribution of granted budgets across counts/queries —
        # the spread a runtime actually sees, not just the full table's.
        obs.histogram("tsp.budget_w", budget)
        return budget

    def worst_case_mapping(self, m: int) -> list[int]:
        """A thermally worst (most concentrated) mapping of ``m`` cores."""
        self._check_m(m)
        _, centre = self._engine.tsp_for_count(
            m, self.headroom, self._inactive_power
        )
        order = self._engine.concentration_order()
        return sorted(order[centre, :m].tolist())

    def total_budget(self, m: int) -> float:
        """Chip-level safe power with ``m`` active cores: ``m * TSP(m)``."""
        return m * self.worst_case(m)

    def table(self, counts: Optional[Sequence[int]] = None) -> dict[int, float]:
        """``{m: TSP(m)}`` for the given active-core counts.

        Defaults to every count from 1 to the chip's core count — the
        abstraction a runtime would precompute once per chip.  Every
        count reads the engine's all-counts table, shared with every
        other calculator on the chip.
        """
        if counts is None:
            counts = range(1, self._chip.n_cores + 1)
        return {m: self.worst_case(m) for m in counts}

    def safe_frequency(
        self,
        app,
        m: int,
        threads: int = 8,
        frequencies: Optional[Sequence[float]] = None,
    ) -> float:
        """Highest DVFS level of ``app`` whose Eq. (1) power fits TSP(m).

        This is the per-application step of the paper's Figure 10
        methodology: given ``m`` active cores, each core may draw
        ``TSP(m)`` watts; pick the fastest ladder frequency whose
        per-core power (at ``threads`` threads per instance, leakage
        evaluated at T_DTM) stays within that budget.

        Args:
            app: an :class:`repro.apps.profile.AppProfile`.
            m: number of active cores.
            threads: threads per instance.
            frequencies: candidate ladder (default: the node's).

        Raises:
            InfeasibleError: when even the lowest level exceeds TSP(m).
        """
        key = (
            app,
            m,
            threads,
            None if frequencies is None else tuple(frequencies),
        )
        cached = self._safe_frequencies.get(key)
        if cached is not None:
            if is_gated(cached):
                raise InfeasibleError(
                    f"no DVFS level of {app.name} fits TSP({m}) = "
                    f"{self.worst_case(m):.3f} W/core"
                )
            return cached
        budget = self.worst_case(m)
        table = operating_points(app, self._chip.node, self._t_dtm, frequencies)
        chosen = F_GATED
        for f in table.frequencies:
            if table.core_power(threads, f) <= budget:
                chosen = f
        self._safe_frequencies[key] = chosen
        if is_gated(chosen):
            raise InfeasibleError(
                f"no DVFS level of {app.name} fits TSP({m}) = {budget:.3f} W/core"
            )
        return chosen

    def safe_frequency_table(
        self,
        app,
        counts: Sequence[int],
        threads: int = 8,
    ) -> dict[int, float]:
        """``{m: safe frequency}`` for several active-core counts."""
        return {m: self.safe_frequency(app, m, threads=threads) for m in counts}

    # -- internals ----------------------------------------------------

    def _check_active(self, active: Sequence[int]) -> np.ndarray:
        idx = np.asarray(active, dtype=int)
        if idx.size == 0:
            raise ConfigurationError("mapping must contain at least one core")
        if idx.size != np.unique(idx).size:
            raise ConfigurationError("mapping contains duplicate cores")
        if idx.min() < 0 or idx.max() >= self._chip.n_cores:
            raise ConfigurationError(
                f"core indices must be in [0, {self._chip.n_cores})"
            )
        return idx

    def _check_m(self, m: int) -> None:
        if not 1 <= m <= self._chip.n_cores:
            raise ConfigurationError(
                f"active-core count must be in [1, {self._chip.n_cores}], got {m}"
            )
