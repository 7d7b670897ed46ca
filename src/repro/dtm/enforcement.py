"""DTM enforcement: what a thermally violating mapping actually keeps.

The paper's Section 3.1 argues that an optimistic TDP *underestimates*
dark silicon because the mappings it admits exceed T_DTM and DTM then
powers cores down.  :func:`enforce` quantifies that: starting from a
(possibly violating) mapping result, it applies a reactive DTM policy
step by step until the steady state is safe and reports both the
sanctioned mapping and how much performance/active silicon DTM took
back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import MappingResult
from repro.dtm.policies import DtmPolicy, ThrottleHottest
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DtmOutcome:
    """Result of thermally enforcing a mapping.

    Attributes:
        before: the original mapping result (as admitted by the
            constraint that produced it).
        after: the mapping surviving DTM (thermally safe).
        steps: DTM interventions applied (0 when already safe).
    """

    before: MappingResult
    after: MappingResult
    steps: int

    @property
    def triggered(self) -> bool:
        """Whether DTM had to intervene at all."""
        return self.steps > 0

    @property
    def cores_lost(self) -> int:
        """Active cores DTM powered down."""
        return self.before.active_cores - self.after.active_cores

    @property
    def gips_lost(self) -> float:
        """Performance DTM took back, GIPS."""
        return self.before.gips - self.after.gips

    @property
    def effective_dark_fraction(self) -> float:
        """Dark silicon after enforcement — the paper's point: the real
        dark-silicon amount of an optimistic-TDP mapping."""
        return self.after.dark_fraction


def enforce(
    result: MappingResult,
    policy: DtmPolicy | None = None,
    max_steps: int = 10_000,
) -> DtmOutcome:
    """Apply ``policy`` to ``result`` until the steady state is safe.

    Args:
        result: the mapping to enforce (its chip provides T_DTM).
        policy: reactive DTM policy; defaults to
            :class:`repro.dtm.policies.ThrottleHottest`.
        max_steps: safety bound on interventions.

    Returns:
        A :class:`DtmOutcome`; its ``after`` mapping is thermally safe
        (or empty if the policy ran out of options).

    Raises:
        ConfigurationError: if the policy fails to converge within
            ``max_steps`` (a policy that never lowers power).
    """
    chip = result.chip
    policy = policy or ThrottleHottest()
    placed = list(result.placed)
    steps = 0

    def peak(instances) -> float:
        powers = np.zeros(chip.n_cores)
        for p in instances:
            powers[list(p.cores)] += p.core_power
        return chip.solver.peak_temperature(powers)

    while peak(placed) > chip.t_dtm + 1e-6:
        if steps >= max_steps:
            raise ConfigurationError(
                f"DTM policy did not reach a safe state in {max_steps} steps"
            )
        modified = policy.step(chip, placed)
        if modified is None:
            break
        placed = modified
        steps += 1

    powers = np.zeros(chip.n_cores)
    for p in placed:
        powers[list(p.cores)] += p.core_power
    after = MappingResult(
        chip=chip,
        placed=tuple(placed),
        rejected=result.rejected,
        core_powers=powers,
        peak_temperature=chip.solver.peak_temperature(powers),
    )
    return DtmOutcome(before=result, after=after, steps=steps)
