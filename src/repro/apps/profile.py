"""Per-application characterisation consumed by every experiment.

An :class:`AppProfile` is the library's substitute for a (gem5, McPAT)
trace: it carries the application's IPC, its Amdahl parallel fraction
(Figure 4), and its 22 nm Eq. (1) power coefficients (Figure 3), from
which performance and power at any thread count, frequency and technology
node can be derived analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.speedup import amdahl_speedup, amdahl_utilisation, fit_scaling
from repro.errors import ConfigurationError
from repro.power.calibration import fit_power_model
from repro.power.leakage import LeakageModel
from repro.power.model import CorePowerModel
from repro.power.vf_curve import VFCurve
from repro.tech.library import NODE_22NM
from repro.tech.node import TechNode


@dataclass(frozen=True)
class AppProfile:
    """One application's performance and power characteristics.

    Attributes:
        name: PARSEC benchmark name (e.g. ``"x264"``).
        ipc: average committed instructions per cycle of one thread on
            the Alpha 21264 out-of-order core (a proxy for ILP).
        parallel_fraction: Amdahl's-law parallel share in [0, 1]
            (a proxy for TLP).
        sync_overhead: per-extra-thread synchronisation cost ``gamma`` of
            the extended speed-up law (see :mod:`repro.apps.speedup`).
        ceff_22nm: effective switching capacitance at 22 nm, in F.
        pind_22nm: execution-mode independent power at 22 nm, in W.
        i0_22nm: leakage current at the 22 nm reference point, in A.
        max_threads: the paper runs each instance with 1..8 parallel
            dependent threads (Section 2.3).
    """

    name: str
    ipc: float
    parallel_fraction: float
    ceff_22nm: float
    pind_22nm: float
    i0_22nm: float
    sync_overhead: float = 0.0
    max_threads: int = 8

    def __post_init__(self) -> None:
        if self.ipc <= 0:
            raise ConfigurationError(f"ipc must be positive, got {self.ipc}")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ConfigurationError(
                f"parallel_fraction must be in [0, 1], got {self.parallel_fraction}"
            )
        if self.ceff_22nm <= 0:
            raise ConfigurationError(f"ceff_22nm must be positive, got {self.ceff_22nm}")
        if self.pind_22nm < 0 or self.i0_22nm < 0:
            raise ConfigurationError(
                "pind_22nm and i0_22nm must be non-negative, got "
                f"{self.pind_22nm} and {self.i0_22nm}"
            )
        if self.sync_overhead < 0:
            raise ConfigurationError(
                f"sync_overhead must be non-negative, got {self.sync_overhead}"
            )
        if self.max_threads < 1:
            raise ConfigurationError(f"max_threads must be >= 1, got {self.max_threads}")

    @classmethod
    def from_measurements(
        cls,
        name: str,
        ipc: float,
        scaling_points: Sequence[tuple[int, float]],
        power_samples: Sequence[tuple[float, float]],
        max_threads: int = 8,
        measurement_temperature: float = 80.0,
    ) -> "AppProfile":
        """Characterise a new application from raw measurements.

        This is the paper's Figure 1 tool flow for a user's own workload:
        two (threads, speed-up) points pin the extended-Amdahl scaling
        (Figure 4 methodology) and a single-thread (frequency, power)
        sweep at 22 nm pins the Eq. (1) coefficients (Figure 3
        methodology, non-negative least squares).

        Args:
            name: application name.
            ipc: single-thread instructions per cycle.
            scaling_points: exactly two measured ``(threads, speedup)``
                pairs with distinct thread counts.
            power_samples: at least three ``(frequency_hz, power_w)``
                single-thread samples at 22 nm.
            max_threads: per-instance thread cap.
            measurement_temperature: die temperature of the power
                samples, degC.

        Raises:
            ConfigurationError: on malformed inputs or an unphysical fit.
        """
        if len(scaling_points) != 2:
            raise ConfigurationError(
                f"need exactly two scaling points, got {len(scaling_points)}"
            )
        (n_a, s_a), (n_b, s_b) = scaling_points
        p, gamma = fit_scaling(n_a, s_a, n_b, s_b)

        frequencies = [f for f, _ in power_samples]
        powers = [w for _, w in power_samples]
        fit = fit_power_model(
            frequencies,
            powers,
            curve=VFCurve.for_node(NODE_22NM),
            leakage_shape=LeakageModel(i0=1.0),
            alpha=1.0,
            temperature=measurement_temperature,
        )
        return cls(
            name=name,
            ipc=ipc,
            parallel_fraction=p,
            sync_overhead=gamma,
            ceff_22nm=fit.model.ceff,
            pind_22nm=fit.model.pind,
            i0_22nm=fit.model.leakage.i0,
            max_threads=max_threads,
        )

    def speedup(self, threads: int) -> float:
        """Speed-up of an instance running ``threads`` threads."""
        return amdahl_speedup(self.parallel_fraction, threads, self.sync_overhead)

    def utilisation(self, threads: int) -> float:
        """Per-core activity factor ``alpha`` at ``threads`` threads."""
        return amdahl_utilisation(self.parallel_fraction, threads, self.sync_overhead)

    def instance_performance(self, threads: int, frequency: float) -> float:
        """Throughput of one instance, in instructions per second.

        One thread commits ``ipc * f`` instructions per second; an
        ``n``-thread instance scales that by the Amdahl speed-up.
        """
        if frequency < 0:
            raise ConfigurationError(f"frequency must be non-negative, got {frequency}")
        return self.speedup(threads) * self.ipc * frequency

    def power_model(self, node: TechNode, inactive_power: float = 0.0) -> CorePowerModel:
        """Eq. (1) model for this application scaled to ``node``."""
        return CorePowerModel.at_node(
            node,
            ceff_22nm=self.ceff_22nm,
            pind_22nm=self.pind_22nm,
            leakage_22nm=LeakageModel(i0=self.i0_22nm),
            inactive_power=inactive_power,
        )

    def core_power(
        self,
        node: TechNode,
        threads: int,
        frequency: float,
        temperature: float = 80.0,
    ) -> float:
        """Eq. (1) power of one core of an ``n``-thread instance, in W."""
        model = self.power_model(node)
        return model.power(
            frequency, alpha=self.utilisation(threads), temperature=temperature
        )
