"""Recovering Eq. (1) coefficients from sampled (frequency, power) points.

Figure 3 of the paper shows the Eq. (1) model fitted to McPAT simulation
points for a single-threaded H.264 encoder at 22 nm.  This module
reproduces the fitting step: given measured pairs ``(f_i, P_i)`` (here,
produced by our McPAT-substitute — an Eq. (1) ground truth plus optional
noise), recover ``(Ceff, I0, Pind)`` by non-negative linear least squares.

With voltage tied to frequency by Eq. (2), each Eq. (1) term is linear in
one unknown:

    P_i = Ceff * [alpha * V_i^2 * f_i]  +  I0 * [V_i * g(V_i, T)]  +  Pind

where ``g`` is the unit-``I0`` leakage basis.  Non-negativity is enforced
because all three coefficients are physical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.power.leakage import LeakageModel
from repro.power.model import CorePowerModel
from repro.power.vf_curve import VFCurve


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of :func:`fit_power_model`.

    Attributes:
        model: the fitted :class:`CorePowerModel`.
        rms_error: root-mean-square residual over the fit points, in W.
        max_error: worst absolute residual, in W.
    """

    model: CorePowerModel
    rms_error: float
    max_error: float


def nnls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exact non-negative least squares for a design of a few columns.

    Minimises ``||design @ x - target||`` subject to ``x >= 0`` by
    enumeration: the optimum is the unconstrained least-squares solution
    on its own support (KKT), so among the least-squares solutions on
    every column subset (and ``x = 0``) the feasible one with the least
    residual is the optimum.  Columns are scaled to unit norm first, so
    badly scaled bases (``alpha V^2 f`` ~ 1e9 against a unit column)
    condition each solve well.  The cost is ``2^n - 1`` small solves, so
    this is meant for Eq. (1)'s three columns.

    Returns:
        The non-negative coefficients, one per column.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(target, dtype=float)
    norms = np.linalg.norm(a, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    scaled = a / scale
    n = a.shape[1]
    best = np.zeros(n)
    best_residual = np.linalg.norm(b)
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        solution = np.linalg.lstsq(scaled[:, cols], b, rcond=None)[0]
        if np.any(solution < 0):
            continue
        residual = np.linalg.norm(scaled[:, cols] @ solution - b)
        if residual < best_residual:
            best = np.zeros(n)
            best[cols] = solution
            best_residual = residual
    return best / scale


def fit_power_model(
    frequencies: Sequence[float],
    powers: Sequence[float],
    curve: VFCurve,
    leakage_shape: LeakageModel,
    alpha: float = 1.0,
    temperature: float = 80.0,
) -> CalibrationResult:
    """Fit Eq. (1) coefficients to ``(frequencies, powers)`` samples.

    Args:
        frequencies: sampled frequencies in Hz (all positive).
        powers: measured total core power at each frequency, in W.
        curve: the node's Eq. (2) curve (gives V_i for each f_i).
        leakage_shape: a leakage model whose ``vref``/``kv``/``kt`` define
            the leakage basis; its ``i0`` is ignored and refitted.
        alpha: activity factor during the measurements.
        temperature: die temperature during the measurements, in degC.

    Returns:
        A :class:`CalibrationResult` whose model reproduces the samples.

    Raises:
        ConfigurationError: on mismatched/empty inputs or too few points.
    """
    f = np.asarray(frequencies, dtype=float)
    p = np.asarray(powers, dtype=float)
    if f.ndim != 1 or f.shape != p.shape:
        raise ConfigurationError(
            f"frequencies and powers must be equal-length 1-D sequences, "
            f"got shapes {f.shape} and {p.shape}"
        )
    if f.size < 3:
        raise ConfigurationError(
            f"need at least 3 samples to fit 3 coefficients, got {f.size}"
        )
    if np.any(f <= 0):
        raise ConfigurationError("all sample frequencies must be positive")

    unit_leak = LeakageModel(
        i0=1.0,
        vref=leakage_shape.vref,
        tref=leakage_shape.tref,
        kv=leakage_shape.kv,
        kt=leakage_shape.kt,
    )
    v = np.array([curve.voltage(fi) for fi in f])
    dyn_basis = alpha * v * v * f
    leak_basis = np.array(
        [unit_leak.power(vi, temperature) for vi in v]
    )
    design = np.column_stack([dyn_basis, leak_basis, np.ones_like(f)])
    ceff, i0, pind = nnls(design, p)

    # The fit may return an exact zero for a physically-positive coefficient
    # when the data cannot distinguish it; keep ceff strictly positive so
    # the resulting model is constructible.
    ceff = max(ceff, 1e-18)

    model = CorePowerModel(
        ceff=ceff,
        pind=pind,
        leakage=LeakageModel(
            i0=i0,
            vref=leakage_shape.vref,
            tref=leakage_shape.tref,
            kv=leakage_shape.kv,
            kt=leakage_shape.kt,
        ),
        curve=curve,
    )
    predicted = design @ np.array([ceff, i0, pind])
    residuals = predicted - p
    return CalibrationResult(
        model=model,
        rms_error=float(np.sqrt(np.mean(residuals**2))),
        max_error=float(np.max(np.abs(residuals))),
    )
