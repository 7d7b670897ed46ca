"""DsRem's heap-ordered budget phase against the linear scan it replaced.

``reference_budget_phase`` below is the earlier formulation of phase 1:
the density greedy rescans every candidate from the top for each pick,
and the upgrade pass rescans every placed instance for each upgrade and
rebuilds the upgraded instance at once.  The production
``_budget_phase`` resumes the greedy where its last pick was found,
takes upgrades from a heap keyed on ``(-score, index)`` and rebuilds
each upgraded instance once at the end.  Both must leave the same
placed instances and power vector after phase 1, bit for bit, and so
the same final mapping.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.apps.parsec import PARSEC, PARSEC_ORDER
from repro.mapping import dsrem
from repro.mapping.dsrem import DsRemConfig
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.power.budget import PAPER_TDP_PESSIMISTIC
from repro.units import GIGA

PRODUCTION_BUDGET_PHASE = dsrem._budget_phase


# -- the linear-scan reference ----------------------------------------


def reference_budget_phase(state, configs, tdp, cfg) -> int:
    """Phase 1 as a linear scan; returns the number of upgrades made."""
    remaining_power = tdp
    free_cores = state.chip.n_cores

    by_density = sorted(configs, key=lambda c: c.performance / c.power, reverse=True)
    while True:
        pick = next(
            (
                c for c in by_density
                if c.threads <= free_cores and c.power <= remaining_power
            ),
            None,
        )
        if pick is None or not state.add(pick):
            break
        added = state.placed[-1]
        remaining_power -= added.core_power * len(added.cores)
        free_cores -= len(added.cores)

    moves = [_reference_upgrade_move(state, i) for i in range(len(state.placed))]
    upgrades = 0
    for _ in range(cfg.max_steps):
        best = None
        for i, move in enumerate(moves):
            if move is None or move[0] > remaining_power:
                continue
            if best is None or move[2] > moves[best][2]:
                best = i
        if best is None:
            break
        extra = moves[best][0]
        _, level = state.point(best)
        state.replace(best, level + 1)
        remaining_power -= extra
        moves[best] = _reference_upgrade_move(state, best)
        upgrades += 1
    return upgrades


def _reference_upgrade_move(
    state, index: int
) -> Optional[tuple[float, float, float]]:
    placed = state.placed[index]
    table, level = state.point(index)
    if level + 1 == len(table.frequencies):
        return None
    n = placed.instance.threads
    new_power = n * table.power[n - 1][level + 1]
    extra = new_power - placed.core_power * len(placed.cores)
    gain = table.performance[n - 1][level + 1] - table.performance[n - 1][level]
    if gain <= 0:
        return None
    return extra, gain, gain / max(extra, 1e-9)


# -- the checks -------------------------------------------------------


def _run(monkeypatch, budget_phase, chip, apps, tdp, cfg):
    """``ds_rem`` with ``budget_phase`` as phase 1; returns the state
    phase 1 left, its return value and the final mapping."""
    seen = {}

    def phase(state, configs, tdp, cfg):
        seen["returned"] = budget_phase(state, configs, tdp, cfg)
        seen["placed"] = tuple(state.placed)
        seen["powers"] = state.core_powers()

    with monkeypatch.context() as patch:
        patch.setattr(dsrem, "_budget_phase", phase)
        result = dsrem.ds_rem(chip, apps, tdp, config=cfg)
    return seen, result


def _assert_same(monkeypatch, chip, apps, tdp, cfg) -> dict:
    """Assert both phase-1 versions agree; return the reference's phase 1."""
    expected, expected_result = _run(
        monkeypatch, reference_budget_phase, chip, apps, tdp, cfg
    )
    actual, actual_result = _run(
        monkeypatch, PRODUCTION_BUDGET_PHASE, chip, apps, tdp, cfg
    )
    assert actual["placed"] == expected["placed"]
    assert np.array_equal(actual["powers"], expected["powers"])
    assert actual_result.placed == expected_result.placed
    assert actual_result.peak_temperature == expected_result.peak_temperature
    return expected


TWO_APP_MIXES = [
    (PARSEC_ORDER[i], PARSEC_ORDER[(i + 1) % len(PARSEC_ORDER)])
    for i in range(len(PARSEC_ORDER))
]


@pytest.mark.parametrize("mix", TWO_APP_MIXES, ids="+".join)
def test_two_app_mixes_on_16nm(monkeypatch, chip16, mix):
    apps = [PARSEC[name] for name in mix]
    expected = _assert_same(
        monkeypatch, chip16, apps, PAPER_TDP_PESSIMISTIC, DsRemConfig()
    )
    assert expected["returned"] > 0  # the upgrade pass ran


@pytest.mark.parametrize(
    "mix",
    [
        ("x264", "canneal"),
        ("swaptions", "bodytrack"),
        ("ferret", "blackscholes", "dedup"),
    ],
    ids="+".join,
)
def test_mixes_on_11nm(monkeypatch, chip11, mix):
    apps = [PARSEC[name] for name in mix]
    _assert_same(monkeypatch, chip11, apps, PAPER_TDP_PESSIMISTIC, DsRemConfig())


def test_step_cap_stops_the_upgrade_pass(monkeypatch, chip16):
    apps = [PARSEC["x264"], PARSEC["canneal"]]
    uncapped = _assert_same(
        monkeypatch, chip16, apps, PAPER_TDP_PESSIMISTIC, DsRemConfig()
    )
    cap = 7
    assert uncapped["returned"] > cap
    capped = _assert_same(
        monkeypatch, chip16, apps, PAPER_TDP_PESSIMISTIC, DsRemConfig(max_steps=cap)
    )
    assert capped["returned"] == cap


def test_custom_grid_and_thread_options(monkeypatch, chip16):
    cfg = DsRemConfig(
        frequencies=[1.6 * GIGA, 2.4 * GIGA, 2.8 * GIGA, 3.2 * GIGA, 3.6 * GIGA],
        threads_options=(2, 4, 8),
    )
    apps = [PARSEC["swaptions"], PARSEC["dedup"]]
    expected = _assert_same(monkeypatch, chip16, apps, PAPER_TDP_PESSIMISTIC, cfg)
    assert expected["returned"] > 0
    assert {p.instance.threads for p in expected["placed"]} <= {2, 4, 8}


def test_tdp_too_small_for_any_configuration(monkeypatch, chip16):
    apps = [PARSEC["x264"], PARSEC["canneal"]]
    expected = _assert_same(monkeypatch, chip16, apps, 0.01, DsRemConfig())
    assert expected["placed"] == ()


class _Table:
    """A one-row operating-point table with hand-picked figures."""

    def __init__(self, app, power, performance):
        self.app = app
        self.frequencies = tuple((1.0 + k) * GIGA for k in range(len(power)))
        self.power = (tuple(power),)
        self.performance = (tuple(performance),)

    def level(self, frequency):
        return self.frequencies.index(frequency)


def test_upgrade_that_frees_power_returns_set_aside_moves(small_chip):
    """Eq. (1) power rises along the V/f curve, so no real table has an
    upgrade that frees power; this one does.  Phase 1 places B at level 2
    and then A at level 0.  A's upgrade (+0.4 W, score 5) does not fit the
    0.1 W left and is set aside; B's upgrade frees 0.5 W, after which A's
    fits again."""
    app = PARSEC["x264"]
    table = _Table(
        app, power=(0.8, 1.2, 1.0, 0.5), performance=(1.0, 3.0, 2.0, 2.0 + 1e-10)
    )
    configs = [
        dsrem._Config(table, 1, 0, 0.8, 1.0),  # A
        dsrem._Config(table, 1, 2, 1.0, 2.0),  # B
    ]

    def run(budget_phase):
        state = dsrem._State(small_chip, ThermalSpreadPlacer(), {app: table})
        budget_phase(state, configs, 1.9, DsRemConfig())
        return state

    expected = run(reference_budget_phase)
    actual = run(PRODUCTION_BUDGET_PHASE)
    assert actual.placed == expected.placed
    assert np.array_equal(actual.core_powers(), expected.core_powers())
    assert [table.level(p.instance.frequency) for p in actual.placed] == [3, 1]
