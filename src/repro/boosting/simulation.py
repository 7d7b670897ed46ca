"""Transient boosting/constant-frequency experiments (Figures 11-13).

A :class:`PlacedWorkload` pins a workload's instances to cores and
pre-extracts per-core power coefficients so the per-millisecond transient
loop is pure vector arithmetic:

* dynamic + independent power from the commanded frequency,
* leakage from the commanded voltage and each core's *current*
  temperature (the full Eq. (1) temperature feedback).

:func:`run_transients` advances a batch of closed-loop runs
(:class:`TransientRun`) in lockstep on one chip: one backward-Euler
state block, one multi-RHS solve and one leakage evaluation per step.
:func:`run_boosting` (the closed-loop
:class:`repro.boosting.controller.BoostingController`) and
:func:`run_constant` (one fixed frequency) are single-run calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.workload import ApplicationInstance, Workload
from repro.boosting.controller import BoostingController
from repro.chip import Chip
from repro.errors import ConfigurationError, MappingError
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.thermal.transient import (
    TransientSimulator,
    count_simulations,
    step_plan,
)
from repro.units import Seconds, gips as to_gips, is_gated


class PlacedWorkload:
    """A workload pinned to cores, with vectorised power evaluation.

    Args:
        chip: the chip the instances are placed on.
        placements: ``(instance, core_indices)`` pairs; core sets must be
            disjoint and each match its instance's thread count.
    """

    def __init__(
        self,
        chip: Chip,
        placements: Sequence[tuple[ApplicationInstance, Sequence[int]]],
    ) -> None:
        self.chip = chip
        self.placements = [(inst, tuple(cores)) for inst, cores in placements]
        seen: set[int] = set()
        for inst, cores in self.placements:
            if len(cores) != inst.cores:
                raise ConfigurationError(
                    f"instance of {inst.app.name} needs {inst.cores} cores, "
                    f"got {len(cores)}"
                )
            if seen.intersection(cores):
                raise ConfigurationError("placements overlap")
            seen.update(cores)
        if seen and (min(seen) < 0 or max(seen) >= chip.n_cores):
            raise ConfigurationError("core index out of range")

        n = chip.n_cores
        # Per-core coefficient vectors (zero on dark cores).
        self._dyn_coeff = np.zeros(n)  # alpha * Ceff (dynamic = coeff*V^2*f)
        self._pind = np.zeros(n)
        self._i0 = np.zeros(n)
        self._active = np.zeros(n, dtype=bool)
        # IPS per Hz of chip frequency: sum over instances of S(n)*IPC.
        self._perf_per_hz = 0.0
        leak_shape = None
        for inst, cores in self.placements:
            model = inst.app.power_model(chip.node)
            alpha = inst.utilisation
            for c in cores:
                self._dyn_coeff[c] = alpha * model.ceff
                self._pind[c] = model.pind
                self._i0[c] = model.leakage.i0
                self._active[c] = True
            self._perf_per_hz += inst.app.speedup(inst.threads) * inst.app.ipc
            leak_shape = model.leakage
        self._curve = None
        if self.placements:
            self._curve = self.placements[0][0].app.power_model(chip.node).curve
        self._leak_shape = leak_shape
        # frequency -> (base powers, leakage voltage prefactor)
        self._points: dict[float, tuple[np.ndarray, float]] = {}

    @property
    def n_instances(self) -> int:
        """Number of placed instances."""
        return len(self.placements)

    @property
    def active_cores(self) -> int:
        """Number of cores running a thread."""
        return int(self._active.sum())

    @property
    def occupied(self) -> set[int]:
        """Indices of active cores."""
        return {int(i) for i in np.flatnonzero(self._active)}

    def performance(self, frequency: float) -> float:
        """Aggregate throughput (instructions/s) at chip frequency ``frequency``."""
        return self._perf_per_hz * frequency

    def _operating_point(self, frequency: float) -> tuple[np.ndarray, float]:
        """Memoised ``(base powers, leakage prefactor)`` at ``frequency``.

        The base vector (read-only) is the per-core dynamic + independent
        power; the prefactor is ``v * (v / vref) * exp(kv * (v - vref))``,
        so the per-core leakage is ``i0 * (prefactor * exp(kt * (T - tref)))``.

        Raises:
            InfeasibleError: from ``VFCurve.voltage`` when ``frequency``
                is above the curve's reachable limit (never memoised).
        """
        point = self._points.get(frequency)
        if point is None:
            if is_gated(frequency) or not self.placements:
                base, prefactor = np.zeros(self.chip.n_cores), 0.0
            else:
                v = self._curve.voltage(frequency)
                base = self._dyn_coeff * (v * v * frequency)
                base[self._active] += self._pind[self._active]
                shape = self._leak_shape
                prefactor = v * (v / shape.vref) * np.exp(shape.kv * (v - shape.vref))
            base.setflags(write=False)
            point = self._points[frequency] = (base, prefactor)
        return point

    def base_powers(self, frequency: float) -> np.ndarray:
        """Per-core dynamic + independent power at ``frequency``, W."""
        return self._operating_point(frequency)[0].copy()

    def leakage_powers(
        self, frequency: float, core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Per-core leakage power at ``frequency`` and given temperatures, W."""
        if is_gated(frequency) or not self.placements:
            return np.zeros(self.chip.n_cores)
        prefactor = self._operating_point(frequency)[1]
        shape = self._leak_shape
        return self._i0 * (
            prefactor * np.exp(shape.kt * (core_temperatures - shape.tref))
        )

    def total_powers(
        self, frequency: float, core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Full Eq. (1) per-core power vector, W."""
        return self._operating_point(frequency)[0] + self.leakage_powers(
            frequency, core_temperatures
        )

    # -- per-instance frequency evaluation -----------------------------
    #
    # The chip-wide methods above model the paper's boosting setting (one
    # frequency for all active cores).  The methods below generalise to
    # one frequency per instance, which is what DsRem-style mappings and
    # per-instance boosting produce.

    def _check_frequencies(self, frequencies: Sequence[float]) -> list[float]:
        if len(frequencies) != len(self.placements):
            raise ConfigurationError(
                f"expected {len(self.placements)} per-instance frequencies, "
                f"got {len(frequencies)}"
            )
        return list(frequencies)

    def instance_performance(self, frequencies: Sequence[float]) -> float:
        """Aggregate throughput (instructions/s), one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        return sum(
            inst.app.speedup(inst.threads) * inst.app.ipc * f
            for (inst, _), f in zip(self.placements, fs)
        )

    def instance_base_powers(self, frequencies: Sequence[float]) -> np.ndarray:
        """Per-core dynamic + independent power, one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        powers = np.zeros(self.chip.n_cores)
        for (inst, cores), f in zip(self.placements, fs):
            if is_gated(f):
                continue
            v = self._curve.voltage(f)
            for c in cores:
                powers[c] = self._dyn_coeff[c] * v * v * f + self._pind[c]
        return powers

    def instance_leakage_powers(
        self, frequencies: Sequence[float], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Per-core leakage power, one frequency per instance."""
        fs = self._check_frequencies(frequencies)
        powers = np.zeros(self.chip.n_cores)
        shape = self._leak_shape
        for (inst, cores), f in zip(self.placements, fs):
            if is_gated(f):
                continue
            v = self._curve.voltage(f)
            v_term = (
                v
                * (v / shape.vref)
                * np.exp(shape.kv * (v - shape.vref))
            )
            idx = list(cores)
            powers[idx] = (
                self._i0[idx]
                * v_term
                * np.exp(shape.kt * (core_temperatures[idx] - shape.tref))
            )
        return powers

    def instance_total_powers(
        self, frequencies: Sequence[float], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Full Eq. (1) per-core powers, one frequency per instance."""
        return self.instance_base_powers(frequencies) + self.instance_leakage_powers(
            frequencies, core_temperatures
        )

    @classmethod
    def from_mapping(cls, result) -> tuple["PlacedWorkload", list[float]]:
        """Adopt a :class:`repro.core.estimator.MappingResult`'s placement.

        Returns:
            The placed workload plus the mapping's per-instance
            frequencies (feed them to the ``instance_*`` methods to
            transiently validate a steady-state mapping, e.g. a DsRem
            result).
        """
        placements = [(p.instance, p.cores) for p in result.placed]
        placed = cls(result.chip, placements)
        return placed, [p.instance.frequency for p in result.placed]


def place_workload(
    chip: Chip, workload: Workload, placer: Optional[Placer] = None
) -> PlacedWorkload:
    """Pin every instance of ``workload`` to cores (capacity-only check).

    Raises:
        MappingError: if the chip lacks capacity for the whole workload.
    """
    placer = placer or ContiguousPlacer()
    occupied: set[int] = set()
    placements: list[tuple[ApplicationInstance, Sequence[int]]] = []
    for instance in workload:
        cores = placer.place(chip, instance.cores, occupied)
        if cores is None:
            raise MappingError(
                f"chip capacity exhausted after {len(placements)} of "
                f"{len(workload)} instances"
            )
        occupied.update(cores)
        placements.append((instance, cores))
    return PlacedWorkload(chip, placements)


@dataclass(frozen=True)
class BoostingRunResult:
    """Trace and aggregates of one transient run.

    Trace arrays are sampled every ``record_interval``; aggregate scalars
    are computed over *every* integration step, so they do not depend on
    the recording rate.
    """

    times: np.ndarray
    frequencies: np.ndarray
    gips: np.ndarray
    peak_temperatures: np.ndarray
    total_powers: np.ndarray
    average_gips: float
    average_power: float
    max_power: float
    max_temperature: float
    energy: float


@dataclass(frozen=True)
class ConstantRunResult:
    """Steady operation at one fixed frequency.

    Attributes:
        frequency: the fixed chip frequency, Hz.
        gips: aggregate throughput, GIPS.
        total_power: leakage-consistent steady-state chip power, W.
        peak_temperature: steady-state hottest core, degC.
    """

    frequency: float
    gips: float
    total_power: float
    peak_temperature: float


@dataclass(frozen=True)
class TransientRun:
    """One closed-loop transient simulation, for :func:`run_transients`.

    Attributes:
        placed: the pinned workload.
        duration: simulated seconds, a whole number of ``dt`` steps.
        controller: consulted every step (``dt`` is the control period,
            1 ms in the paper), starting from its current frequency;
            ``None`` makes a constant run that holds ``frequency``.
        frequency: the held chip frequency of a constant run, Hz.
        dt: integration step == control period, s.
        record_interval: trace sampling interval, s (at least ``dt``).
        warm_start_frequency: if given, the thermal state starts from the
            steady state of running at this frequency with leakage taken
            at T_DTM (avoids simulating a long heat-up from ambient);
            otherwise from ambient.
        power_cap: electrical power constraint, W (the paper's Section 6
            uses 500 W): whenever the commanded frequency would exceed
            it, the frequency is stepped back down before being applied.
            Needs a controller.

    Raises:
        ConfigurationError: unless exactly one of ``controller`` and
            ``frequency`` is given, or on a ``power_cap`` without a
            controller.
    """

    placed: PlacedWorkload
    duration: Seconds
    controller: Optional[BoostingController] = None
    frequency: Optional[float] = None
    dt: Seconds = 1e-3
    record_interval: Seconds = 0.1
    warm_start_frequency: Optional[float] = None
    power_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.controller is None) == (self.frequency is None):
            raise ConfigurationError(
                "a transient run needs exactly one of controller and frequency"
            )
        if self.power_cap is not None and self.controller is None:
            raise ConfigurationError("power_cap needs a controller")


def run_transients(runs: Sequence[TransientRun]) -> list[BoostingRunResult]:
    """Advance every run in lockstep; one result per run, in order.

    The ``k`` runs share one chip (so one thermal model), one ``dt`` and
    one ``duration``.  Their thermal state is one ``(n_nodes, k)`` block
    and every step is one multi-RHS solve against the model's cached
    step factorization.  Each step evaluates the leakage temperature
    term once for the whole batch, and each run's power vector from its
    memoised operating point.  Each run's decisions are its own, so a
    run's result is what it gives alone (bit for bit under the sparse
    backend).

    Raises:
        ConfigurationError: on runs that do not share a chip, ``dt`` and
            ``duration``, or on invalid timing (see
            :func:`repro.thermal.transient.step_plan`).
    """
    runs = list(runs)
    if not runs:
        return []
    chip, dt, duration = runs[0].placed.chip, runs[0].dt, runs[0].duration
    for run in runs:
        if run.placed.chip is not chip:
            raise ConfigurationError("lockstep runs must share one chip")
        if (run.dt, run.duration) != (dt, duration):
            raise ConfigurationError(
                f"lockstep runs must share one dt and duration; got "
                f"dt={run.dt}, duration={run.duration} against "
                f"dt={dt}, duration={duration}"
            )
    n_steps, _ = step_plan(duration, dt)
    every = [step_plan(duration, dt, run.record_interval)[1] for run in runs]
    k, n = len(runs), chip.n_cores
    count_simulations(n_steps, k)

    placed = [run.placed for run in runs]
    controllers = [run.controller for run in runs]
    capped = [j for j, run in enumerate(runs) if run.power_cap is not None]
    shapes = [p._leak_shape for p in placed]
    i0 = np.stack([p._i0 for p in placed])
    kt = np.array([[s.kt if s else 0.0] for s in shapes])
    tref = np.array([[s.tref if s else 0.0] for s in shapes])
    perf_per_hz = np.array([p._perf_per_hz for p in placed])

    sim = TransientSimulator(chip.thermal, dt=dt)
    warm = np.zeros((k, n))
    temps0 = np.full(n, chip.t_dtm)
    for j, run in enumerate(runs):
        if run.warm_start_frequency is not None:
            warm[j] = run.placed.total_powers(run.warm_start_frequency, temps0)
    sim.warm_start(warm)
    temps = sim.core_temperatures
    peaks = temps.max(axis=1)

    freqs = [run.frequency for run in runs]
    base = np.empty((k, n))
    prefactor = np.empty((k, 1))
    traces: list[list[tuple]] = [[] for _ in runs]
    perf_sum = np.zeros(k)
    power_sum = np.zeros(k)
    max_power = np.zeros(k)
    max_temp = np.full(k, -np.inf)

    for step in range(n_steps):
        for j, ctrl in enumerate(controllers):
            if ctrl is not None:
                freqs[j] = ctrl.update(float(peaks[j]))
            base[j], prefactor[j, 0] = placed[j]._operating_point(freqs[j])
        leak_t = np.exp(kt * (temps - tref))
        powers = base + i0 * (prefactor * leak_t)
        totals = powers.sum(axis=1)

        if capped:
            evaluated = list(freqs)

            def evaluate(j: int) -> None:
                row_base, row_prefactor = placed[j]._operating_point(freqs[j])
                powers[j] = row_base + i0[j] * (row_prefactor * leak_t[j])
                totals[j] = powers[j].sum()
                evaluated[j] = freqs[j]

            over = [
                j for j in capped
                if freqs[j] > controllers[j].f_min and totals[j] > runs[j].power_cap
            ]
            while over:
                for j in over:
                    freqs[j] -= controllers[j].step
                over = [j for j in over if freqs[j] > controllers[j].f_min]
                for j in over:
                    evaluate(j)
                over = [j for j in over if totals[j] > runs[j].power_cap]
            for j in capped:
                freqs[j] = max(freqs[j], controllers[j].f_min)
                controllers[j].reset(freqs[j])
                if freqs[j] != evaluated[j]:  # the cap loop stopped at f_min
                    evaluate(j)

        temps = sim.step(powers)
        peaks = temps.max(axis=1)
        perf = perf_per_hz * np.array(freqs)
        perf_sum += perf
        power_sum += totals
        np.maximum(max_power, totals, out=max_power)
        np.maximum(max_temp, peaks, out=max_temp)

        for j, trace in enumerate(traces):
            if (step + 1) % every[j] == 0 or step == n_steps - 1:
                trace.append(
                    (
                        (step + 1) * dt,
                        freqs[j],
                        to_gips(float(perf[j])),
                        float(peaks[j]),
                        float(totals[j]),
                    )
                )

    results = []
    for j, trace in enumerate(traces):
        times, fs, gips_trace, peak_trace, power_trace = zip(*trace)
        avg_power = float(power_sum[j]) / n_steps
        results.append(
            BoostingRunResult(
                times=np.array(times),
                frequencies=np.array(fs),
                gips=np.array(gips_trace),
                peak_temperatures=np.array(peak_trace),
                total_powers=np.array(power_trace),
                average_gips=to_gips(float(perf_sum[j]) / n_steps),
                average_power=avg_power,
                max_power=float(max_power[j]),
                max_temperature=float(max_temp[j]),
                energy=avg_power * duration,
            )
        )
    return results


def run_boosting(
    placed: PlacedWorkload,
    controller: BoostingController,
    duration: Seconds,
    dt: Seconds = 1e-3,
    record_interval: Seconds = 0.1,
    warm_start_frequency: Optional[float] = None,
    power_cap: Optional[float] = None,
) -> BoostingRunResult:
    """Simulate closed-loop boosting for ``duration`` seconds.

    A single-run :func:`run_transients` call; the arguments are the
    :class:`TransientRun` fields of the same names.
    """
    run = TransientRun(
        placed,
        duration,
        controller=controller,
        dt=dt,
        record_interval=record_interval,
        warm_start_frequency=warm_start_frequency,
        power_cap=power_cap,
    )
    return run_transients([run])[0]


def run_constant(
    placed: PlacedWorkload,
    frequency: float,
    duration: Seconds,
    dt: Seconds = 1e-3,
    record_interval: Seconds = 0.1,
    warm_start: bool = True,
) -> BoostingRunResult:
    """Simulate constant-frequency operation for ``duration`` seconds.

    A single-run :func:`run_transients` call; ``warm_start`` starts from
    the steady state at ``frequency`` instead of ambient.
    """
    run = TransientRun(
        placed,
        duration,
        frequency=frequency,
        dt=dt,
        record_interval=record_interval,
        warm_start_frequency=frequency if warm_start else None,
    )
    return run_transients([run])[0]


def run_per_instance_boosting(
    placed: PlacedWorkload,
    controllers: Sequence[BoostingController],
    duration: Seconds,
    dt: Seconds = 1e-3,
    record_interval: Seconds = 0.1,
    warm_start_frequencies: Optional[Sequence[float]] = None,
    power_cap: Optional[float] = None,
) -> BoostingRunResult:
    """Closed-loop boosting with one controller per instance.

    The paper's controller is chip-wide; per-instance control is the
    natural finer granularity (each instance reacts to *its own* hottest
    core), letting instances placed in cool die regions boost further
    while hot ones back off.  The electrical ``power_cap`` is enforced by
    stepping down the currently fastest instance until the cap holds.

    Args:
        placed: the pinned workload.
        controllers: one controller per instance, in placement order.
        duration: simulated seconds, a whole number of ``dt`` steps.
        dt: integration step == control period, s.
        record_interval: trace sampling interval, s (at least ``dt``).
        warm_start_frequencies: start the thermal state from the steady
            state of these per-instance frequencies.
        power_cap: electrical power constraint, W.

    Returns:
        A :class:`BoostingRunResult`; the ``frequencies`` trace records
        the per-step mean of the instance frequencies.

    Raises:
        ConfigurationError: on a controller count that does not match the
            instances, or on invalid timing (see
            :func:`repro.thermal.transient.step_plan`).
    """
    if len(controllers) != placed.n_instances:
        raise ConfigurationError(
            f"need {placed.n_instances} controllers, got {len(controllers)}"
        )
    n_steps, every = step_plan(duration, dt, record_interval)
    count_simulations(n_steps)
    sim = TransientSimulator(placed.chip.thermal, dt=dt)
    if warm_start_frequencies is not None:
        temps0 = np.full(placed.chip.n_cores, placed.chip.t_dtm)
        sim.warm_start(placed.instance_total_powers(warm_start_frequencies, temps0))

    core_lists = [list(cores) for _, cores in placed.placements]
    times, freqs, gips_trace, peaks, powers = [], [], [], [], []
    perf_sum = power_sum = max_power = 0.0
    max_temp = -np.inf

    temps = sim.core_temperatures
    for k in range(n_steps):
        fs = [
            ctrl.update(float(temps[cores].max()) if cores else 0.0)
            for ctrl, cores in zip(controllers, core_lists)
        ]
        p = placed.instance_total_powers(fs, temps)
        if power_cap is not None:
            while p.sum() > power_cap:
                fastest = max(range(len(fs)), key=lambda i: fs[i])
                ctrl = controllers[fastest]
                if fs[fastest] <= ctrl.f_min:
                    break
                fs[fastest] = max(ctrl.f_min, fs[fastest] - ctrl.step)
                ctrl.reset(fs[fastest])
                p = placed.instance_total_powers(fs, temps)
        total_p = float(p.sum())
        temps = sim.step(p)
        peak = float(np.max(temps))

        perf = placed.instance_performance(fs)
        perf_sum += perf
        power_sum += total_p
        max_power = max(max_power, total_p)
        max_temp = max(max_temp, peak)

        if (k + 1) % every == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            freqs.append(float(np.mean(fs)) if fs else 0.0)
            gips_trace.append(to_gips(perf))
            peaks.append(peak)
            powers.append(total_p)

    avg_power = power_sum / n_steps
    return BoostingRunResult(
        times=np.array(times),
        frequencies=np.array(freqs),
        gips=np.array(gips_trace),
        peak_temperatures=np.array(peaks),
        total_powers=np.array(powers),
        average_gips=to_gips(perf_sum / n_steps),
        average_power=avg_power,
        max_power=max_power,
        max_temperature=float(max_temp),
        energy=avg_power * duration,
    )
