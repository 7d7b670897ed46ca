"""High-level dark-silicon sweep APIs (Figures 5, 6 and 7).

These functions wrap the estimation engine in the exact experiment shapes
the paper runs: per-application frequency sweeps under a constraint
(Figure 5), TDP-vs-temperature comparisons (Figure 6), and the
DVFS/thread-count search that exploits application TLP/ILP characteristics
(Figure 7's "Scenario 2").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.apps.operating_points import operating_points
from repro.apps.profile import AppProfile
from repro.apps.workload import Workload
from repro.chip import Chip
from repro.core.constraints import Constraint, PowerBudgetConstraint
from repro.core.estimator import MappingResult, map_workload
from repro.errors import ConfigurationError, InfeasibleError
from repro.mapping.base import Placer
from repro.perf.sweep import SweepRunner
from repro.units import gips as to_gips


@dataclass(frozen=True)
class FrequencySweepPoint:
    """One point of a Figure 5-style sweep.

    Attributes:
        frequency: operating frequency, Hz.
        active_fraction: share of cores running.
        dark_fraction: share of cores dark.
        peak_temperature: steady-state hottest core, degC.
        total_power: chip power, W.
        gips: aggregate performance, GIPS.
    """

    frequency: float
    active_fraction: float
    dark_fraction: float
    peak_temperature: float
    total_power: float
    gips: float

    @classmethod
    def from_result(cls, frequency: float, result: MappingResult) -> "FrequencySweepPoint":
        """Flatten a :class:`MappingResult` into a sweep point."""
        return cls(
            frequency=frequency,
            active_fraction=result.active_fraction,
            dark_fraction=result.dark_fraction,
            peak_temperature=result.peak_temperature,
            total_power=result.total_power,
            gips=result.gips,
        )


def estimate_dark_silicon(
    chip: Chip,
    app: AppProfile,
    frequency: float,
    constraint: Constraint,
    threads: int = 8,
    placer: Optional[Placer] = None,
) -> MappingResult:
    """Map as many ``threads``-thread instances of ``app`` as allowed.

    The offered workload saturates the chip (``n_cores // threads``
    instances); the constraint decides how many actually run — the rest
    of the chip is dark.
    """
    max_instances = chip.n_cores // threads
    workload = Workload.replicate(app, max_instances, threads, frequency)
    return map_workload(chip, workload, constraint, placer=placer)


def sweep_frequencies(
    chip: Chip,
    app: AppProfile,
    frequencies: Sequence[float],
    constraint: Constraint,
    threads: int = 8,
    placer: Optional[Placer] = None,
) -> list[FrequencySweepPoint]:
    """Figure 5: dark silicon vs v/f level for one application.

    The cells run in-process (chips do not pickle), each reusing the
    chip engine's cached influence operator; the pass's wall clock
    lands in the ``sweep.sweep_frequencies`` span.
    """
    cell = partial(
        estimate_dark_silicon,
        chip,
        app,
        constraint=constraint,
        threads=threads,
        placer=placer,
    )
    results = SweepRunner().map(
        list(frequencies), cell, stage="sweep_frequencies"
    )
    return [
        FrequencySweepPoint.from_result(f, result)
        for f, result in zip(frequencies, results)
    ]


def compare_tdp_vs_temperature(
    chip: Chip,
    app: AppProfile,
    frequency: float,
    tdp: float,
    threads: int = 8,
    placer: Optional[Placer] = None,
) -> tuple[MappingResult, MappingResult]:
    """Figure 6: the same workload under TDP and under T_DTM.

    Returns:
        ``(under_tdp, under_temperature)`` mapping results.
    """
    from repro.core.constraints import TemperatureConstraint

    under_tdp = estimate_dark_silicon(
        chip, app, frequency, PowerBudgetConstraint(tdp), threads=threads, placer=placer
    )
    under_temp = estimate_dark_silicon(
        chip, app, frequency, TemperatureConstraint(), threads=threads, placer=placer
    )
    return under_tdp, under_temp


@dataclass(frozen=True)
class BestConfiguration:
    """Winner of :func:`best_homogeneous_configuration`.

    Attributes:
        threads: threads per instance.
        frequency: per-core frequency, Hz.
        n_instances: instances mapped.
        active_cores: total active cores.
        gips: aggregate performance, GIPS.
        total_power: aggregate Eq. (1) power, W.
    """

    threads: int
    frequency: float
    n_instances: int
    active_cores: int
    gips: float
    total_power: float


def best_homogeneous_configuration(
    chip: Chip,
    app: AppProfile,
    power_budget: float,
    threads_options: Optional[Sequence[int]] = None,
    frequencies: Optional[Sequence[float]] = None,
    power_temperature: Optional[float] = None,
    max_instances: Optional[int] = None,
) -> BestConfiguration:
    """Best (threads, v/f) pair for one application under a power budget.

    This is Figure 7's "Scenario 2" search: exploit the application's
    TLP/ILP characteristics by jointly choosing the per-instance thread
    count and the DVFS level that maximise total GIPS, instead of blindly
    running 8 threads at nominal frequency.  The search is exact for
    homogeneous workloads (closed-form instance count per configuration).

    Args:
        chip: the target chip (capacity and technology node).
        app: the application.
        power_budget: the chip-level budget (the paper uses TDP = 185 W).
        threads_options: candidate per-instance thread counts
            (default 1..app.max_threads).
        frequencies: candidate frequencies (default: the node's ladder).
        power_temperature: leakage evaluation temperature, degC
            (default: the chip's T_DTM).
        max_instances: cap on the number of instances (the paper's
            Figure 7 compares scenarios over the *same offered workload*,
            i.e. ``n_cores // 8`` instances; ``None`` leaves the count
            free).

    Raises:
        InfeasibleError: if no configuration fits the budget.
    """
    if power_budget <= 0:
        raise ConfigurationError(
            f"power_budget must be positive, got {power_budget}"
        )
    if max_instances is not None and max_instances < 1:
        raise ConfigurationError(
            f"max_instances must be positive, got {max_instances}"
        )
    if threads_options is None:
        threads_options = range(1, app.max_threads + 1)
    t_power = chip.t_dtm if power_temperature is None else power_temperature
    table = operating_points(app, chip.node, t_power, frequencies)
    if frequencies is None:
        frequencies = chip.node.frequency_ladder()

    best: Optional[BestConfiguration] = None
    for threads in threads_options:
        for frequency in frequencies:
            per_core = table.core_power(threads, frequency)
            by_power = int(power_budget // (threads * per_core))
            by_cores = chip.n_cores // threads
            n_instances = min(by_power, by_cores)
            if max_instances is not None:
                n_instances = min(n_instances, max_instances)
            if n_instances < 1:
                continue
            perf = n_instances * table.instance_performance(threads, frequency)
            candidate = BestConfiguration(
                threads=threads,
                frequency=frequency,
                n_instances=n_instances,
                active_cores=n_instances * threads,
                gips=to_gips(perf),
                total_power=n_instances * threads * per_core,
            )
            if best is None or candidate.gips > best.gips:
                best = candidate
    if best is None:
        raise InfeasibleError(
            f"no (threads, frequency) configuration of {app.name} fits "
            f"within {power_budget} W"
        )
    return best
