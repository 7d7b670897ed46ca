"""DsRem's certified threshold checks.

``_State.peak_at_most`` answers "peak <= limit" from the batched
engine's influence matvec and asks the sparse solver only when the
engine peak lies within ``_CERT`` of the limit.  It must give the
solver's answer for every limit, including limits within rounding of
the solver's peak, and DsRem must solve once per run for the peak it
reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.parsec import PARSEC
from repro.chip import Chip
from repro.experiments.common import get_chip
from repro.mapping import dsrem
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.power.budget import PAPER_TDP_PESSIMISTIC
from repro.tech.library import NODE_16NM

#: Offsets (K) of the limit from the solver's exact peak: the first four
#: lie inside the certification band, the last two outside it.
OFFSETS = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8)

CHIPS = {
    "16nm": lambda: get_chip("16nm"),
    "11nm": lambda: get_chip("11nm"),
    "8nm": lambda: get_chip("8nm"),
    "16nm-2layer": lambda: Chip.stacked_grid(NODE_16NM, 10, 10, 2),
}


def _power_vectors(n_cores: int, count: int, seed: int) -> np.ndarray:
    """Random per-core powers, W, with about a third of the cores dark."""
    rng = np.random.default_rng(seed)
    powers = rng.uniform(0.0, 4.0, size=(count, n_cores))
    powers[rng.random((count, n_cores)) < 0.35] = 0.0
    return powers


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_certified_check_gives_the_solver_answer(name):
    chip = CHIPS[name]()
    for p in _power_vectors(chip.n_cores, 40, seed=len(name)):
        exact = chip.solver.peak_temperature(p)
        assert abs(chip.engine.peak_temperature(p) - exact) < dsrem._CERT / 1000
        for offset in OFFSETS:
            limit = exact + offset
            state = dsrem._State(chip, ThermalSpreadPlacer(), {})
            state._powers[:] = p
            assert state.peak_at_most(limit) == (exact <= limit)
            # Inside the band the solver decided; outside, the engine.
            assert (state._peak is None) == (abs(offset) > dsrem._CERT)


PRODUCTION_HOTTEST = dsrem._State.hottest_instance

#: The dsrem_mixes benchmark's seed-0 mixes: a cycle through the seven apps.
SEED0_MIXES = [
    ("bodytrack", "canneal"),
    ("canneal", "ferret"),
    ("ferret", "swaptions"),
    ("swaptions", "dedup"),
    ("dedup", "x264"),
    ("x264", "blackscholes"),
    ("blackscholes", "bodytrack"),
]


@pytest.mark.parametrize("mix", SEED0_MIXES, ids="+".join)
def test_one_solve_per_run_without_repair(monkeypatch, global_obs, chip16, mix):
    """Every threshold check reads the engine, so a run that makes no
    repair step solves once, for the peak it reports."""
    repairs = []

    def hottest_instance(state):
        repairs.append(True)
        return PRODUCTION_HOTTEST(state)

    monkeypatch.setattr(dsrem._State, "hottest_instance", hottest_instance)
    chip16.engine  # built outside the counted section, as every run's set-up does
    global_obs.reset()
    result = dsrem.ds_rem(chip16, [PARSEC[n] for n in mix], PAPER_TDP_PESSIMISTIC)
    assert not repairs
    assert global_obs.snapshot()["counters"]["thermal.model.solves"] == 1
    assert result.peak_temperature == chip16.solver.peak_temperature(
        result.core_powers
    )

