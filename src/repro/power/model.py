"""Per-core power consumption — Eq. (1) of the paper.

    P = alpha * Ceff * Vdd^2 * f + Vdd * Ileak(Vdd, T) + Pind     (Eq. 1)

``alpha`` is the core's activity factor (utilisation), ``Ceff`` the
application's effective switching capacitance, and ``Pind`` the
frequency-independent power of keeping the core in execution mode.  Since
voltage and frequency are tied together by Eq. (2) (see
:class:`repro.power.vf_curve.VFCurve`), the dynamic term is cubic in
frequency — the shape visible in Figure 3.

:class:`CorePowerModel` is application- and node-specific: build one with
:meth:`CorePowerModel.at_node` from 22 nm coefficients (Figure 1 scaling)
or directly from already-scaled coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.power.leakage import LeakageModel
from repro.power.vf_curve import VFCurve
from repro.tech.node import TechNode
from repro.units import is_gated


@dataclass(frozen=True)
class CorePowerModel:
    """Eq. (1) for one application on one technology node.

    Attributes:
        ceff: effective switching capacitance at full activity, in F.
        pind: execution-mode independent power, in W.
        leakage: the ``Ileak(V, T)`` model.
        curve: the node's Eq. (2) voltage/frequency curve.
        inactive_power: residual power of a power-gated (dark) core, in W.
    """

    ceff: float
    pind: float
    leakage: LeakageModel
    curve: VFCurve
    inactive_power: float = 0.0

    def __post_init__(self) -> None:
        if self.ceff <= 0:
            raise ConfigurationError(f"ceff must be positive, got {self.ceff}")
        if self.pind < 0:
            raise ConfigurationError(f"pind must be non-negative, got {self.pind}")
        if self.inactive_power < 0:
            raise ConfigurationError(
                f"inactive_power must be non-negative, got {self.inactive_power}"
            )

    @classmethod
    def at_node(
        cls,
        node: TechNode,
        ceff_22nm: float,
        pind_22nm: float,
        leakage_22nm: LeakageModel,
        inactive_power: float = 0.0,
    ) -> "CorePowerModel":
        """Scale 22 nm coefficients to ``node`` per Figure 1.

        Capacitance scales by the capacitance factor; the independent
        power, being dominated by the clock network and other always-on
        switched capacitance, scales like ``C * Vdd^2`` (capacitance
        factor times the voltage factor squared); the leakage model
        scales per :meth:`repro.power.leakage.LeakageModel.scaled_to`.
        """
        return cls(
            ceff=ceff_22nm * node.factors.capacitance,
            pind=pind_22nm * node.factors.capacitance * node.factors.vdd**2,
            leakage=leakage_22nm.scaled_to(node),
            curve=VFCurve.for_node(node),
            inactive_power=inactive_power,
        )

    def voltage_for(self, frequency: float) -> float:
        """Minimum stable supply voltage (V) for ``frequency`` (Hz)."""
        return self.curve.voltage(frequency)

    def dynamic_power(
        self, frequency: float, alpha: float = 1.0, vdd: Optional[float] = None
    ) -> float:
        """The ``alpha * Ceff * Vdd^2 * f`` term of Eq. (1), in W.

        ``vdd`` defaults to the Eq. (2) minimum for ``frequency``.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        if is_gated(frequency):
            return 0.0
        v = self.voltage_for(frequency) if vdd is None else vdd
        return alpha * self.ceff * v * v * frequency

    def leakage_power(
        self, frequency: float, temperature: float, vdd: Optional[float] = None
    ) -> float:
        """The ``Vdd * Ileak(Vdd, T)`` term of Eq. (1), in W."""
        v = self.voltage_for(frequency) if vdd is None else vdd
        return self.leakage.power(v, temperature)

    def power(
        self,
        frequency: float,
        alpha: float = 1.0,
        temperature: float = 80.0,
        vdd: Optional[float] = None,
    ) -> float:
        """Total Eq. (1) core power, in W.

        A core at ``frequency == 0`` is treated as power-gated and draws
        only ``inactive_power``.
        """
        if is_gated(frequency):
            return self.inactive_power
        v = self.voltage_for(frequency) if vdd is None else vdd
        return (
            self.dynamic_power(frequency, alpha, vdd=v)
            + self.leakage_power(frequency, temperature, vdd=v)
            + self.pind
        )
