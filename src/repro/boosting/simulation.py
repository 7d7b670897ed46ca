"""Transient boosting/constant-frequency experiments (Figures 11-13).

A :class:`PlacedWorkload` pins a workload's instances to cores and
pre-extracts per-core power coefficients so the per-millisecond transient
loop is pure vector arithmetic:

* dynamic + independent power from the commanded frequency,
* leakage from the commanded voltage and each core's *current*
  temperature (the full Eq. (1) temperature feedback).

One loop, :func:`_lockstep`, steps every closed-loop transient: runs of
one or more control groups (a core set with a controller or a held
frequency), whose cores take their powers from the operating point at
the group's frequency, and one power-cap rule.  :func:`run_transients`
runs chip-wide :class:`TransientRun` batches (one group each);
:func:`run_boosting` and :func:`run_constant` are single-run calls into
it, and :func:`run_per_instance_boosting` has a group per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

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
        self._instance_cores = [np.array(cores, dtype=np.intp) for _, cores in self.placements]
        # IPS per Hz of frequency, S(n)*IPC: per instance, and their sum.
        self._instance_perf_per_hz = [
            inst.app.speedup(inst.threads) * inst.app.ipc for inst, _ in self.placements
        ]
        self._perf_per_hz = sum(self._instance_perf_per_hz, 0.0)
        leak_shape = None
        for inst, cores in self.placements:
            model = inst.app.power_model(chip.node)
            alpha = inst.utilisation
            for c in cores:
                self._dyn_coeff[c] = alpha * model.ceff
                self._pind[c] = model.pind
                self._i0[c] = model.leakage.i0
                self._active[c] = True
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
        return self._leakage(self._operating_point(frequency)[1], core_temperatures)

    def total_powers(
        self, frequency: float, core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Full Eq. (1) per-core power vector, W."""
        return self._operating_point(frequency)[0] + self.leakage_powers(
            frequency, core_temperatures
        )

    def _leakage(
        self, prefactor: Union[float, np.ndarray], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """``i0 * (prefactor * exp(kt * (T - tref)))``; a scalar or per-core prefactor."""
        shape = self._leak_shape
        return self._i0 * (prefactor * np.exp(shape.kt * (core_temperatures - shape.tref)))

    # -- per-instance frequency evaluation -----------------------------
    #
    # One frequency per instance, as DsRem-style mappings and per-instance
    # boosting produce: each instance's cores take their entries of the
    # operating point at its frequency, so one common frequency gives
    # the chip-wide vectors exactly.

    def _instances(
        self, frequencies: Sequence[float]
    ) -> Iterator[tuple[np.ndarray, float, float]]:
        """``(cores, perf_per_hz, frequency)`` per instance, in placement order."""
        if len(frequencies) != len(self.placements):
            raise ConfigurationError(
                f"expected {len(self.placements)} per-instance frequencies, "
                f"got {len(frequencies)}"
            )
        return zip(self._instance_cores, self._instance_perf_per_hz, frequencies)

    def instance_performance(self, frequencies: Sequence[float]) -> float:
        """Aggregate throughput (instructions/s), one frequency per instance."""
        return sum(perf_per_hz * f for _, perf_per_hz, f in self._instances(frequencies))

    def instance_total_powers(
        self, frequencies: Sequence[float], core_temperatures: np.ndarray
    ) -> np.ndarray:
        """Full Eq. (1) per-core powers, one frequency per instance."""
        base = np.zeros(self.chip.n_cores)
        prefactor = np.zeros(self.chip.n_cores)
        for cores, _, f in self._instances(frequencies):
            _set_point(base, prefactor, cores, self._operating_point(f))
        return base + self._leakage(prefactor, core_temperatures) if self.placements else base

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
    one ``duration``.  Each is one control group over the whole chip, so
    its controller reads the chip's hottest core (see :func:`_lockstep`).
    Each run's decisions are its own, so a run's result is what it gives
    alone (bit for bit under the sparse backend).

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
    temps0 = np.full(chip.n_cores, chip.t_dtm)
    loop_runs = []
    for run in runs:
        warm = run.warm_start_frequency
        powers = None if warm is None else run.placed.total_powers(warm, temps0)
        groups = [_Group(slice(None), run.controller, run.frequency, run.placed._perf_per_hz)]
        loop_runs.append(_Run(run.placed, groups, run.record_interval, powers, run.power_cap))
    return _lockstep(chip, dt, duration, loop_runs)


class _Group(NamedTuple):
    """A control group: its cores (``slice(None)`` spans the chip), its
    controller (``None`` holds ``frequency``) and its throughput per Hz."""

    cores: Union[slice, np.ndarray]
    controller: Optional[BoostingController]
    frequency: Optional[float]
    perf_per_hz: float


@dataclass(frozen=True)
class _Run:
    """One run of :func:`_lockstep`; a ``power_cap`` needs a controller in every group."""

    placed: PlacedWorkload
    groups: list[_Group]
    record_interval: Seconds
    warm_start_powers: Optional[np.ndarray]
    power_cap: Optional[float]


def _set_point(
    base: np.ndarray,
    prefactor: np.ndarray,
    cores: Union[slice, np.ndarray],
    point: tuple[np.ndarray, float],
) -> None:
    """Write an operating point's base powers and leakage prefactor into ``cores``."""
    base[cores] = point[0][cores]
    prefactor[cores] = point[1]


def _lockstep(
    chip: Chip, dt: Seconds, duration: Seconds, runs: list[_Run]
) -> list[BoostingRunResult]:
    """Step closed-loop runs in lockstep: the one transient loop.

    The thermal state is one ``(n_nodes, k)`` block and every step is one
    multi-RHS solve against the model's cached step factorization.  Each
    step, every group's controller reads the peak over the group's cores
    and steps its frequency, the group's cores take their entries of
    ``placed._operating_point`` at that frequency, and one leakage
    evaluation gives every run's Eq. (1) row.

    Power cap: while a run's total exceeds its cap, its fastest group (the
    lowest index wins a tie) steps down one step, clamped at ``f_min``;
    that controller is reset and the row re-evaluated.  It stops when the
    fastest group is at ``f_min``.

    A run's performance is the sum of ``perf_per_hz * frequency`` over its
    groups, added in group order; its frequency trace is the groups' mean.
    """
    n_steps, _ = step_plan(duration, dt)
    every = [step_plan(duration, dt, run.record_interval)[1] for run in runs]
    k, n = len(runs), chip.n_cores
    count_simulations(n_steps, k)

    shapes = [run.placed._leak_shape for run in runs]
    i0 = np.stack([run.placed._i0 for run in runs])
    kt = np.array([[s.kt if s else 0.0] for s in shapes])
    tref = np.array([[s.tref if s else 0.0] for s in shapes])
    base = np.zeros((k, n))
    prefactor = np.zeros((k, n))

    # The group layout: group g of the flat lists belongs to run owner[g],
    # and run j owns the groups in spans[j].
    groups = [g for run in runs for g in run.groups]
    owner = [j for j, run in enumerate(runs) for _ in run.groups]
    ends = np.cumsum([len(run.groups) for run in runs]).tolist()
    spans = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]
    capped = [j for j, run in enumerate(runs) if run.power_cap is not None]
    controllers = [g.controller for g in groups]
    freqs = [g.frequency for g in groups]
    perf_per_hz = np.array([g.perf_per_hz for g in groups])
    rows = [(base[j], prefactor[j], g.cores) for j, g in zip(owner, groups)]
    points = [runs[j].placed._operating_point for j in owner]
    # Each group reads the max over its own cores: flat indices into the
    # (k, n) temperature block, one segment per group starting at starts.
    members = [j * n + np.arange(n)[g.cores] for j, g in zip(owner, groups)]
    flat = np.array([c for m in members for c in m], dtype=np.intp)
    starts = np.cumsum([0] + [len(m) for m in members])[:-1]

    sim = TransientSimulator(chip.thermal, dt=dt)
    warm = np.zeros((k, n))
    for j, run in enumerate(runs):
        if run.warm_start_powers is not None:
            warm[j] = run.warm_start_powers
    sim.warm_start(warm)
    temps = sim.core_temperatures

    traces: list[list[tuple]] = [[] for _ in runs]
    perf_sum = np.zeros(k)
    power_sum = np.zeros(k)
    max_power = np.zeros(k)
    max_temp = np.full(k, -np.inf)

    for step in range(n_steps):
        group_peaks = np.maximum.reduceat(temps.take(flat), starts)
        for g, ctrl in enumerate(controllers):
            if ctrl is not None:
                freqs[g] = ctrl.update(float(group_peaks[g]))
            _set_point(*rows[g], points[g](freqs[g]))
        leak_t = np.exp(kt * (temps - tref))
        powers = base + i0 * (prefactor * leak_t)
        totals = powers.sum(axis=1)

        for j in capped:
            while totals[j] > runs[j].power_cap:
                g = max(range(spans[j].start, spans[j].stop), key=freqs.__getitem__)
                ctrl = controllers[g]
                if freqs[g] <= ctrl.f_min:
                    break
                freqs[g] = max(freqs[g] - ctrl.step, ctrl.f_min)
                ctrl.reset(freqs[g])
                _set_point(*rows[g], points[g](freqs[g]))
                powers[j] = base[j] + i0[j] * (prefactor[j] * leak_t[j])
                totals[j] = powers[j].sum()

        temps = sim.step(powers)
        peaks = temps.max(axis=1)
        group_perf = (perf_per_hz * np.array(freqs)).tolist()
        perf = np.array([sum(group_perf[span]) for span in spans], dtype=float)
        perf_sum += perf
        power_sum += totals
        np.maximum(max_power, totals, out=max_power)
        np.maximum(max_temp, peaks, out=max_temp)

        for j, trace in enumerate(traces):
            if (step + 1) % every[j] == 0 or step == n_steps - 1:
                group_freqs = freqs[spans[j]]
                trace.append(
                    (
                        (step + 1) * dt,
                        float(np.mean(group_freqs)) if group_freqs else 0.0,
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
    while hot ones back off.  It is one run of :func:`_lockstep`, the
    loop :func:`run_transients` uses, with one control group per
    instance; so ``power_cap`` steps the fastest instance down.

    Args:
        placed: the pinned workload.
        controllers: one controller per instance, in placement order.
        duration: simulated seconds, a whole number of ``dt`` steps.
        dt: integration step == control period, s.
        record_interval: trace sampling interval, s (at least ``dt``).
        warm_start_frequencies: start the thermal state from the steady
            state of these per-instance frequencies (leakage at T_DTM);
            otherwise from ambient.
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
    warm = None
    if warm_start_frequencies is not None:
        temps0 = np.full(placed.chip.n_cores, placed.chip.t_dtm)
        warm = placed.instance_total_powers(warm_start_frequencies, temps0)
    groups = [
        _Group(cores, ctrl, None, perf_per_hz)
        for cores, ctrl, perf_per_hz in zip(
            placed._instance_cores, controllers, placed._instance_perf_per_hz
        )
    ]
    run = _Run(placed, groups, record_interval, warm, power_cap)
    return _lockstep(placed.chip, dt, duration, [run])[0]
