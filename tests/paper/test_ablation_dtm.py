"""Ablation: DTM consequences of the optimistic TDP (Section 3.1's claim).

"[The optimistic TDP] will trigger DTM, which might power down additional
cores, resulting in more dark silicon."  This check quantifies that:
map the hungry applications to the 220 W budget, let each DTM policy
enforce the 80 degC limit, and measure how much dark silicon the naive
TDP estimate hid.
"""

import pytest

from repro.apps.parsec import PARSEC
from repro.core.constraints import PowerBudgetConstraint
from repro.core.dark_silicon import estimate_dark_silicon
from repro.dtm import GateHottest, ThrottleHottest, enforce
from repro.experiments.common import get_chip
from repro.power.budget import PAPER_TDP_OPTIMISTIC


def _study():
    chip = get_chip("16nm")
    rows = []
    for name in ("x264", "ferret", "dedup", "swaptions"):
        admitted = estimate_dark_silicon(
            chip, PARSEC[name], chip.node.f_max,
            PowerBudgetConstraint(PAPER_TDP_OPTIMISTIC),
        )
        gated = enforce(admitted, GateHottest())
        throttled = enforce(admitted, ThrottleHottest())
        rows.append((name, admitted, gated, throttled))
    return rows


def test_dtm_ablation():
    rows = _study()

    print("\n=== Ablation: DTM enforcement of the optimistic TDP (220 W) ===")
    print(
        f"{'app':11s} {'admitted dark':>14} {'gated dark':>11} "
        f"{'throttled GIPS loss':>20}"
    )
    for name, admitted, gated, throttled in rows:
        print(
            f"{name:11s} {admitted.dark_fraction:>13.0%} "
            f"{gated.effective_dark_fraction:>10.0%} "
            f"{throttled.gips_lost:>19.1f}"
        )

    for name, admitted, gated, throttled in rows:
        # The admitted mapping violates T_DTM (that is the premise).
        assert admitted.peak_temperature > 80.0, name
        # Both policies restore safety.
        assert gated.after.peak_temperature <= 80.0 + 1e-6, name
        assert throttled.after.peak_temperature <= 80.0 + 1e-6, name
        # Gating produces MORE dark silicon than the TDP admitted —
        # the paper's underestimation argument.
        assert gated.effective_dark_fraction > admitted.dark_fraction, name
        # Throttling preserves cores but costs performance.
        assert throttled.after.active_cores == admitted.active_cores, name
        assert throttled.gips_lost > 0, name
        # Throttling dominates gating in retained performance here.
        assert throttled.after.gips >= gated.after.gips, name
