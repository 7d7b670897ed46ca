"""TDP derivation — the two power budgets of Section 3.1.

The paper quantifies two TDP values for the 100-core 16 nm chip:

* the **optimistic** TDP (220 W): the highest total power at which *all*
  cores can execute without any core exceeding the critical temperature
  ``T_DTM`` — computed here by asking the thermal model for the uniform
  per-core power that puts the hottest core exactly at the threshold;
* the **pessimistic** TDP (185 W): a budget sized so that *at least half*
  of the cores can run at the maximum v/f level under the most
  power-consuming application.

Both derivations are exposed as functions so the experiments can recompute
them for any chip/node instead of hard-coding the paper's watt figures;
the paper's own numbers are kept as constants for reference and for
checks that reproduce the exact Figure 5 setting.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.power.model import CorePowerModel

#: The paper's optimistic TDP for the 100-core 16 nm chip, in W.
PAPER_TDP_OPTIMISTIC = 220.0

#: The paper's pessimistic TDP for the 100-core 16 nm chip, in W.
PAPER_TDP_PESSIMISTIC = 185.0


class PeakTemperatureSolver(Protocol):
    """Anything that maps a per-core power vector to a peak temperature.

    Satisfied by :class:`repro.thermal.steady_state.SteadyStateSolver`;
    kept as a protocol so the power layer stays independent of the
    thermal layer.
    """

    def peak_temperature(self, core_powers: Sequence[float]) -> float:
        """Steady-state peak core temperature (degC) for ``core_powers`` (W)."""
        ...  # pragma: no cover - protocol stub


def tdp_all_cores_at_threshold(
    solver: PeakTemperatureSolver,
    n_cores: int,
    t_dtm: float = 80.0,
    tolerance: float = 1e-3,
) -> float:
    """Optimistic TDP: total power with all cores running at ``t_dtm``.

    Finds, by bisection, the uniform per-core power ``P*`` whose
    steady-state peak temperature equals ``t_dtm`` and returns
    ``n_cores * P*``.  Bisection (rather than a single linear solve) keeps
    the function correct when the solver iterates temperature-dependent
    leakage internally, which makes peak temperature nonlinear in power.

    Raises:
        ConfigurationError: if ``n_cores`` is not positive or the ambient
            already exceeds ``t_dtm``.
    """
    if n_cores <= 0:
        raise ConfigurationError(f"n_cores must be positive, got {n_cores}")
    if solver.peak_temperature([0.0] * n_cores) >= t_dtm:
        raise ConfigurationError(
            f"idle chip already at or above T_DTM={t_dtm} degC; "
            "check the ambient temperature"
        )

    lo, hi = 0.0, 1.0
    while solver.peak_temperature([hi] * n_cores) < t_dtm:
        lo, hi = hi, hi * 2.0
        if hi > 1e4:  # pragma: no cover - guards absurd configurations
            raise ConfigurationError(
                "peak temperature never reaches T_DTM; thermal model is "
                "unrealistically well-cooled"
            )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if solver.peak_temperature([mid] * n_cores) < t_dtm:
            lo = mid
        else:
            hi = mid
    return n_cores * 0.5 * (lo + hi)


def tdp_half_cores_max_vf(
    power_models: Sequence[CorePowerModel],
    alphas: Sequence[float],
    n_cores: int,
    t_dtm: float = 80.0,
) -> float:
    """Pessimistic TDP: half the cores at max v/f under the hungriest app.

    Args:
        power_models: one node-scaled Eq. (1) model per candidate
            application.
        alphas: the per-core activity factor each application exhibits in
            the budgeting scenario (the paper uses 8-thread instances).
        n_cores: total core count of the chip.
        t_dtm: temperature at which per-core power is evaluated (worst
            case for leakage), in degC.

    Returns:
        ``ceil(n_cores / 2) * max_app P_core(f_nominal, alpha, t_dtm)``.
    """
    if len(power_models) != len(alphas):
        raise ConfigurationError(
            f"power_models and alphas must align, got {len(power_models)} "
            f"and {len(alphas)}"
        )
    if not power_models:
        raise ConfigurationError("need at least one application")
    if n_cores <= 0:
        raise ConfigurationError(f"n_cores must be positive, got {n_cores}")
    per_core = max(
        model.power(model.curve.f_nominal, alpha=alpha, temperature=t_dtm)
        for model, alpha in zip(power_models, alphas)
    )
    half = int(np.ceil(n_cores / 2))
    return half * per_core
