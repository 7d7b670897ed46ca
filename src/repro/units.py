"""Unit conventions and conversion helpers.

The library uses SI units internally everywhere:

========================  ==========================
quantity                  unit
========================  ==========================
length / thickness        metre (m)
area                      square metre (m^2)
power                     watt (W)
temperature               degree Celsius (degC) [*]_
thermal resistance        kelvin per watt (K/W)
thermal conductance       watt per kelvin (W/K)
thermal capacitance       joule per kelvin (J/K)
voltage                   volt (V)
frequency                 hertz (Hz)
capacitance               farad (F)
current                   ampere (A)
energy                    joule (J)
time                      second (s)
performance               instructions per second
========================  ==========================

.. [*] Temperature *differences* are expressed in kelvin; absolute
   temperatures in degrees Celsius, matching HotSpot's convention of
   configuring the ambient in Celsius while the RC mathematics only ever
   manipulates differences.

Public constants expose the multipliers used when paper values (mm, GHz,
nF, ...) are written in source code, so the intent stays visible at the
point of use: ``0.15 * MILLI`` reads as "0.15 mm".
"""

from __future__ import annotations

#: Multiplier for milli (1e-3). ``x * MILLI`` converts mm -> m, mW -> W, ...
MILLI = 1e-3

#: Multiplier for micro (1e-6). ``x * MICRO`` converts um -> m.
MICRO = 1e-6

#: Multiplier for nano (1e-9). ``x * NANO`` converts nF -> F, ns -> s.
NANO = 1e-9

#: Multiplier for kilo (1e3).
KILO = 1e3

#: Multiplier for mega (1e6).
MEGA = 1e6

#: Multiplier for giga (1e9). ``f_hz = f_ghz * GIGA``.
GIGA = 1e9


#: Sentinel frequency (Hz) marking a power-gated (dark) core, or "no
#: feasible DVFS level" in ladder searches.  Assign it by name and test
#: it with :func:`is_gated` — never with a bare ``== 0.0``, which reads
#: as an accidental float-equality bug (lint rule DS102).
F_GATED = 0.0


def is_gated(frequency: float) -> bool:
    """True when ``frequency`` is exactly the power-gated sentinel.

    The comparison is exact on purpose: :data:`F_GATED` is only ever
    *assigned*, never computed, so no rounding can occur between the
    assignment and the test.
    """
    return frequency == F_GATED  # repro-lint: disable=DS102 - sentinel definition


def ghz(value: float) -> float:
    """Convert a frequency in gigahertz to hertz."""
    return value * GIGA


def to_ghz(value_hz: float) -> float:
    """Convert a frequency in hertz to gigahertz."""
    return value_hz / GIGA


def mm2(value: float) -> float:
    """Convert an area in square millimetres to square metres."""
    return value * MILLI * MILLI


def to_mm2(value_m2: float) -> float:
    """Convert an area in square metres to square millimetres."""
    return value_m2 / (MILLI * MILLI)


def gips(value_ips: float) -> float:
    """Convert instructions/second to giga-instructions/second (GIPS)."""
    return value_ips / GIGA


# Annotation aliases: plain ``float`` at runtime, a dimension claim to
# the reader in signatures: ``dt: Seconds``.
Hz = float
GHz = float
Seconds = float
Watts = float
Kelvin = float
Celsius = float
SquareMetres = float
SquareMillimetres = float
Joules = float
Volts = float
IPS = float
GIPS = float
