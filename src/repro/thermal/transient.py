"""Transient thermal simulation (backward Euler).

The boosting experiments (Figures 11-13) need temperature *trajectories*:
Turbo-Boost-style control reacts every millisecond to the instantaneous
peak temperature.  The RC system ``C dT/dt = P - A dT`` is stiff (the
silicon blocks' time constants are sub-millisecond while the sink's is
tens of seconds), so the integrator is the unconditionally stable
backward-Euler scheme:

    (C/dt + A) dT_{k+1} = (C/dt) dT_k + P_k

The left-hand matrix is constant for a fixed step, so it is factorised
once — by the model's shared solver backend, cached per ``dt`` on the
:class:`~repro.thermal.model.ThermalModel` so every simulator with the
same step reuses it — and each step is a pair of triangular solves.

A simulator advances either one trajectory (an ``(n_nodes,)`` state
stepped with ``(n_cores,)`` powers) or ``k`` independent trajectories in
lockstep (an ``(n_nodes, k)`` state stepped with ``(k, n_cores)`` power
blocks), in which case each step is one multi-RHS solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel
from repro.units import Seconds


@dataclass(frozen=True)
class TransientResult:
    """Recorded trajectory of a transient simulation.

    Attributes:
        times: sample instants, in s.
        core_temperatures: array of shape (len(times), n_cores), degC.
        core_powers: array of shape (len(times), n_cores), W — the power
            vector in effect during the step *ending* at each instant.
    """

    times: np.ndarray
    core_temperatures: np.ndarray
    core_powers: np.ndarray

    @property
    def peak_temperatures(self) -> np.ndarray:
        """Per-instant maximum core temperature, degC."""
        return self.core_temperatures.max(axis=1)

    @property
    def total_powers(self) -> np.ndarray:
        """Per-instant total chip power, W."""
        return self.core_powers.sum(axis=1)


#: Relative tolerance within which a duration or a recording interval
#: counts as a whole number of steps (absorbs ``0.3 / 1e-3`` rounding).
_WHOLE_STEP_RTOL = 1e-9


def step_plan(
    duration: Seconds, dt: Seconds, record_interval: Optional[Seconds] = None
) -> tuple[int, int]:
    """Validate a run's timing and return ``(n_steps, record_every)``.

    Args:
        duration: simulated time, s; must be a whole number of steps
            (within float tolerance) — silently rounding would simulate a
            different duration than requested.
        dt: integration step, s.
        record_interval: spacing of recorded samples, s; a whole number
            of steps, for the same reason.  ``None`` records every step.

    Returns:
        The number of steps and the recording stride in steps.

    Raises:
        ConfigurationError: on a non-positive or non-finite duration, a
            duration shorter than one step, one that is not an integer
            multiple of ``dt``, a non-finite ``record_interval``, one
            shorter than ``dt``, or one that is not an integer multiple
            of ``dt``.
    """
    if not 0 < duration < math.inf:
        raise ConfigurationError(
            f"duration must be positive and finite, got {duration}"
        )
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ConfigurationError(
            f"duration {duration} s is shorter than one step ({dt} s)"
        )
    if abs(n_steps * dt - duration) > _WHOLE_STEP_RTOL * max(duration, dt):
        raise ConfigurationError(
            f"duration {duration} s is not a whole number of {dt} s "
            f"steps (nearest is {n_steps} steps = {n_steps * dt} s); "
            f"pass an integer multiple of dt"
        )
    if record_interval is None:
        return n_steps, 1
    if not dt <= record_interval < math.inf:
        raise ConfigurationError(
            f"record_interval ({record_interval} s) must be finite and "
            f">= dt ({dt} s)"
        )
    every = int(round(record_interval / dt))
    if abs(every * dt - record_interval) > _WHOLE_STEP_RTOL * record_interval:
        raise ConfigurationError(
            f"record_interval {record_interval} s is not a whole number of "
            f"{dt} s steps (nearest is {every} steps = {every * dt} s); "
            f"pass an integer multiple of dt"
        )
    return n_steps, every


def count_simulations(n_steps: int, k: int = 1) -> None:
    """Record ``k`` transient simulations of ``n_steps`` steps each."""
    obs.incr("thermal.transient.simulations", k)
    for _ in range(k):
        obs.histogram("thermal.transient.steps_per_sim", n_steps)


class TransientSimulator:
    """Backward-Euler integrator bound to one :class:`ThermalModel`.

    The state is one trajectory until :meth:`warm_start` or :meth:`step`
    is given a ``(k, n_cores)`` block; from then on it holds ``k``
    trajectories as an ``(n_nodes, k)`` block (a single state is copied
    into every column) and every step takes a ``(k, n_cores)`` block.

    Args:
        model: the thermal model.
        dt: integration step, in s (the paper's control period, 1 ms,
            is the natural choice).
    """

    def __init__(self, model: ThermalModel, dt: Seconds = 1e-3) -> None:
        if not 0 < dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {dt}")
        self._model = model
        self._dt = dt
        self._c_over_dt = model.capacitances / dt
        self._factorization = model.step_factorization(dt)
        self._state = np.zeros(model.n_nodes)  # temperature above ambient

    @property
    def model(self) -> ThermalModel:
        """The underlying thermal model."""
        return self._model

    @property
    def dt(self) -> Seconds:
        """Integration step, s."""
        return self._dt

    @property
    def core_temperatures(self) -> np.ndarray:
        """Current core temperatures, degC: ``(n_cores,)``, or a C-ordered
        ``(k, n_cores)`` block (one row per trajectory) for a block state."""
        cores = self._state[self._model.core_indices]
        return self._model.ambient + np.ascontiguousarray(cores.T)

    @property
    def peak_temperature(self) -> float:
        """Current hottest-core temperature (over every trajectory), degC."""
        return float(np.max(self.core_temperatures))

    def _core_powers(self, core_powers) -> np.ndarray:
        """``core_powers`` as a ``(n_cores,)`` vector or ``(k, n_cores)`` block."""
        p = np.asarray(core_powers, dtype=float)
        n = self._model.n_cores
        if p.ndim not in (1, 2) or p.shape[-1] != n or p.size == 0:
            raise ConfigurationError(
                f"expected {n} core powers or a (k, {n}) block, "
                f"got shape {p.shape}"
            )
        return p

    def warm_start(self, core_powers: Sequence[float]) -> None:
        """Set the state to the steady state of ``core_powers``.

        A ``(k, n_cores)`` block starts ``k`` trajectories, one per row,
        with one multi-RHS steady solve.
        """
        p = self._core_powers(core_powers)
        full = np.zeros((self._model.n_nodes,) + p.shape[:-1], order="F")
        full[self._model.core_indices] = p.T
        self._state = self._model.steady_state(full) - self._model.ambient

    def step(self, core_powers: Sequence[float]) -> np.ndarray:
        """Advance one ``dt`` with the given per-core powers (W).

        Args:
            core_powers: ``(n_cores,)`` for a single trajectory, or a
                ``(k, n_cores)`` block advancing ``k`` trajectories in one
                multi-RHS solve.

        Returns:
            The core temperatures (degC) after the step, shaped like
            :attr:`core_temperatures`.

        Raises:
            ConfigurationError: on a power shape that does not match the
                core count or the state's number of trajectories.
        """
        p = self._core_powers(core_powers)
        state = self._state
        if p.ndim == 2 and state.ndim == 1:
            state = np.repeat(state[:, None], p.shape[0], axis=1)
        if state.shape[1:] != p.shape[:-1]:
            raise ConfigurationError(
                f"power shape {p.shape} does not match a state of "
                f"{state.shape[1] if state.ndim == 2 else 1} trajectories"
            )
        obs.incr("thermal.transient.steps", 1 if p.ndim == 1 else p.shape[0])
        c_over_dt = self._c_over_dt if p.ndim == 1 else self._c_over_dt[:, None]
        rhs = c_over_dt * state
        rhs[self._model.core_indices] += p.T
        self._state = self._factorization.solve(rhs)
        return self.core_temperatures

    def simulate(
        self,
        power_schedule: Callable[[float, np.ndarray], Sequence[float]],
        duration: Seconds,
        record_interval: Optional[Seconds] = None,
    ) -> TransientResult:
        """Run ``duration`` seconds under a closed-loop power schedule.

        Args:
            power_schedule: called before every step as
                ``schedule(t, core_temperatures)`` and must return the
                per-core power vector (W) to apply during [t, t + dt).
            duration: simulated time, s; must be a whole number of steps
                (within float tolerance) — silently rounding would
                simulate a different duration than requested.
            record_interval: spacing of recorded samples, s; defaults to
                every step.

        Returns:
            A :class:`TransientResult` with the recorded trajectory.

        Raises:
            ConfigurationError: as :func:`step_plan` does.
        """
        n_steps, every = step_plan(duration, self._dt, record_interval)
        count_simulations(n_steps)
        times: list[float] = []
        temps: list[np.ndarray] = []
        powers: list[np.ndarray] = []
        for k in range(n_steps):
            t = k * self._dt
            p = np.asarray(
                power_schedule(t, self.core_temperatures), dtype=float
            )
            core_t = self.step(p)
            if (k + 1) % every == 0 or k == n_steps - 1:
                times.append(t + self._dt)
                temps.append(core_t.copy())
                # Copy on record: np.asarray does not copy when the
                # schedule reuses one ndarray buffer, and every recorded
                # row would alias the final vector.
                powers.append(p.copy())
        return TransientResult(
            times=np.array(times),
            core_temperatures=np.array(temps),
            core_powers=np.array(powers),
        )
