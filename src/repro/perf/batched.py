"""Batched steady-state evaluation over the influence matrix.

Every figure in the paper reduces to thousands of steady-state solves
``T = T_amb + B P``.  The direct :class:`repro.thermal.steady_state.
SteadyStateSolver` performs one sparse LU solve per power vector; at the
scales the experiments sweep (frequency ladders x core counts x nodes,
plus an event loop querying the peak temperature at every scheduling
event) the same influence operator is applied over and over.

:class:`BatchedSteadyState` freezes the core-to-core influence matrix
``B`` of one :class:`repro.thermal.model.ThermalModel` and evaluates a
single power vector as one matvec and a *batch* of them as one BLAS
matmul (``T = T_amb + P_batch @ B^T``).

It also owns the chip-level TSP artefacts (the per-centre concentration
order and the worst-case budget table per ``(headroom, inactive
power)``) so that every :class:`repro.core.tsp.ThermalSafePower` bound
to the same chip shares them.  A single active-core count is read from
that table, so a budget never depends on which counts were asked first.

The engine binds a *frozen* model — ``ThermalModel`` never mutates after
construction, so the shared tables never need invalidating during the
model's lifetime.  A different package configuration means a different
``ThermalModel`` (and chip), hence a fresh engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel


class BatchedSteadyState:
    """Batched steady-state engine bound to one thermal model.

    Args:
        model: the frozen thermal model.
    """

    def __init__(self, model: ThermalModel) -> None:
        self._model = model
        self._b = model.influence_matrix()
        # Row-major transpose so P_batch @ B^T hits contiguous memory.
        self._bt = np.ascontiguousarray(self._b.T)
        self._ambient = model.ambient
        self._n = model.n_cores
        # TSP artefacts, shared by every ThermalSafePower on this chip.
        self._order: Optional[np.ndarray] = None
        self._tsp_tables: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    # -- basic properties ---------------------------------------------

    @property
    def model(self) -> ThermalModel:
        """The bound thermal model."""
        return self._model

    @property
    def influence(self) -> np.ndarray:
        """The core-to-core influence matrix ``B``, in K/W."""
        return self._b

    @property
    def ambient(self) -> float:
        """Ambient temperature, degC."""
        return self._ambient

    @property
    def n_cores(self) -> int:
        """Core count (summed over every silicon layer on a 3D stack)."""
        return self._n

    @property
    def n_layers(self) -> int:
        """Silicon layer count of the bound model."""
        return self._model.n_layers

    def layer_slice(self, layer: int) -> slice:
        """Slice of the flat core vector holding ``layer``'s blocks."""
        return self._model.layer_slice(layer)

    def layer_temperatures(
        self, core_powers: Sequence[float], layer: int
    ) -> np.ndarray:
        """One layer's steady-state temperatures for full-stack powers.

        The power vector (or ``(k, n)`` batch) always spans every layer;
        the returned temperatures are restricted to ``layer``'s blocks.
        """
        return self.temperatures(core_powers)[..., self.layer_slice(layer)]

    # -- batched solves -----------------------------------------------

    def temperatures(self, core_powers: Sequence[float]) -> np.ndarray:
        """Steady-state core temperatures for one or many power vectors.

        Args:
            core_powers: shape ``(n,)`` for one vector or ``(k, n)`` for
                a batch of ``k`` vectors, in W.

        Returns:
            Temperatures (degC) of the same shape as the input.
        """
        p = np.asarray(core_powers, dtype=float)
        if p.ndim == 1:
            if p.shape != (self._n,):
                raise ConfigurationError(
                    f"expected {self._n} core powers, got shape {p.shape}"
                )
            return self._ambient + self._b @ p
        if p.ndim != 2 or p.shape[1] != self._n:
            raise ConfigurationError(
                f"expected a (k, {self._n}) power batch, got shape {p.shape}"
            )
        return self._ambient + p @ self._bt

    def peak_temperatures(self, power_batch: Sequence[Sequence[float]]) -> np.ndarray:
        """Hottest-core temperature (degC) of each vector in a batch."""
        p = np.asarray(power_batch, dtype=float)
        if p.ndim != 2:
            raise ConfigurationError(
                f"peak_temperatures expects a 2-D batch, got shape {p.shape}"
            )
        return self.temperatures(p).max(axis=1)

    def peak_temperature(self, core_powers: Sequence[float]) -> float:
        """Hottest core's steady-state temperature (degC) for one vector."""
        p = np.asarray(core_powers, dtype=float)
        if p.shape != (self._n,):
            raise ConfigurationError(
                f"expected {self._n} core powers, got shape {p.shape}"
            )
        if not np.isfinite(p).all():
            # Reject like the direct solver path rejects ill-posed
            # inputs, rather than report a NaN peak.
            raise ConfigurationError(
                "core powers must be finite; got NaN or infinity"
            )
        return float((self._ambient + self._b @ p).max())

    # -- shared TSP artefacts -----------------------------------------

    def concentration_order(self) -> np.ndarray:
        """Per-centre thermal concentration order (TSP's candidate maps).

        Row ``c`` lists every core by decreasing influence on core ``c``;
        its first ``m`` entries are the thermally concentrated ``m``-core
        candidate mapping around centre ``c``.
        """
        if self._order is None:
            self._order = np.argsort(-self._b, axis=1)
        return self._order

    def tsp_table(
        self,
        headroom: float,
        inactive_power: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Worst-case TSP budgets for every active-core count 1..n.

        One pass over the counts keeps ``heat[c, i]``, the heating of
        core ``i`` at 1 W per member of centre ``c``'s candidate, and
        adds the next member's influence row for each ``m``: O(n^3)
        work in O(n^2) memory.

        Args:
            headroom: temperature budget ``T_DTM - T_amb``, in K (> 0).
            inactive_power: residual power of dark cores, in W.

        Returns:
            ``(budgets, centres)`` — ``budgets[m - 1]`` is the worst-case
            per-core budget with ``m`` active cores (W) and
            ``centres[m - 1]`` the first centre whose candidate mapping
            attains it.  Budgets are clamped to 0.0 W: when the inactive
            cores' residual heating alone exceeds the headroom the count
            is infeasible, and a 0.0 budget marks it so (a negative
            "budget" must never reach callers).  Cached per ``(headroom,
            inactive_power)``, so every caller on this chip shares one
            table.

        Raises:
            ConfigurationError: on a non-positive headroom.
        """
        if not headroom > 0:
            raise ConfigurationError(f"headroom must be positive, got {headroom}")
        key = (float(headroom), float(inactive_power))
        cached = self._tsp_tables.get(key)
        if cached is not None:
            return cached
        obs.incr("tsp.table_builds")
        order = self.concentration_order()
        n = self._n
        row_totals = self._b.sum(axis=1) if inactive_power else None
        heat = np.zeros((n, n))
        best = np.empty(n)
        best_centre = np.empty(n, dtype=int)
        for k in range(n):
            # Row c gains B[:, order[c, k]], the next member's heating.
            heat += self._bt[order[:, k]]
            if inactive_power:
                budgets = (headroom - inactive_power * (row_totals - heat)) / heat
                per_centre = budgets.min(axis=1)
            else:
                # Division by a positive headroom is monotone, so the
                # hottest core gives min_i(h / heat) bit for bit.
                per_centre = headroom / heat.max(axis=1)
            best_centre[k] = per_centre.argmin()
            best[k] = per_centre[best_centre[k]]
        # Inactive heating beyond the headroom yields negative budgets;
        # clamp to 0.0 (= infeasible count) so no caller ever receives a
        # negative per-core power budget.
        result = (np.maximum(best, 0.0), best_centre)
        self._tsp_tables[key] = result
        return result

    def tsp_for_count(
        self,
        m: int,
        headroom: float,
        inactive_power: float,
    ) -> tuple[float, int]:
        """Worst-case TSP budget for one active-core count.

        Read from :meth:`tsp_table`, so one count and the full table
        always agree.

        Returns:
            ``(budget, centre)`` as in :meth:`tsp_table` at index ``m-1``.
        """
        if not 1 <= m <= self._n:
            raise ConfigurationError(
                f"active-core count must be in [1, {self._n}], got {m}"
            )
        budgets, centres = self.tsp_table(headroom, inactive_power)
        return float(budgets[m - 1]), int(centres[m - 1])
