"""The per-chip placement memo of the two greedy spread placers.

``ThermalSpreadPlacer`` (bias-free) and ``NeighbourhoodSpreadPlacer``
answer each (count, occupied set) once per chip and serve repeats from a
bounded memo on the chip.  A memoised answer must be the answer a fresh
computation gives, in a list the caller may keep and change, and a bad
request must still raise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chip import Chip
from repro.errors import ConfigurationError
from repro.mapping import base
from repro.mapping.patterns import (
    NeighbourhoodSpreadPlacer,
    ThermalSpreadPlacer,
    _thermal_spread,
)
from repro.tech.library import NODE_16NM
from repro.variation.map import VariationMap
from repro.variation.placer import VariationAwarePlacer

#: Placer, its memo's name, and the computation it memoises.
PLACERS = {
    "thermal": (ThermalSpreadPlacer, _thermal_spread),
    "neighbourhood": (NeighbourhoodSpreadPlacer, NeighbourhoodSpreadPlacer._spread),
}


@pytest.fixture
def chip() -> Chip:
    """A fresh 5x5 chip, so every test starts with an empty memo."""
    return Chip.grid_chip(NODE_16NM, 5, 5)


def _memo(chip: Chip, name: str) -> dict:
    return chip._placement_memos[name]


def _requests(chip: Chip, count: int, seed: int = 0):
    """Seeded (n_cores, occupied) requests that leave room for n_cores."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        taken = int(rng.integers(0, chip.n_cores - 4))
        occupied = set(rng.choice(chip.n_cores, size=taken, replace=False).tolist())
        yield int(rng.integers(1, 5)), occupied


@pytest.mark.parametrize("name", sorted(PLACERS))
def test_hit_equals_fresh_computation(chip, name):
    placer_type, compute = PLACERS[name]
    placer = placer_type()
    fresh_chip = Chip.grid_chip(NODE_16NM, 5, 5)
    requests = list(_requests(chip, 30))
    first = [placer.place(chip, n, occupied) for n, occupied in requests]
    assert len(_memo(chip, name)) == len(requests)
    for (n, occupied), cores in zip(requests, first):
        hit = placer.place(chip, n, occupied)
        assert hit == cores == compute(fresh_chip, n, occupied)
        assert hit == placer_type().place(fresh_chip, n, occupied)
    assert len(_memo(chip, name)) == len(requests)


@pytest.mark.parametrize("name", sorted(PLACERS))
def test_returned_list_is_the_callers(chip, name):
    placer = PLACERS[name][0]()
    occupied = {0, 6, 12}
    cores = placer.place(chip, 4, occupied)
    expected = list(cores)
    cores.append(24)
    cores[0] = -1
    again = placer.place(chip, 4, occupied)
    assert again == expected
    again.clear()
    assert placer.place(chip, 4, occupied) == expected


@pytest.mark.parametrize("name", sorted(PLACERS))
def test_too_few_free_cores_is_none_on_a_hit(chip, name):
    placer = PLACERS[name][0]()
    occupied = set(range(chip.n_cores - 2))
    assert placer.place(chip, 3, occupied) is None
    assert placer.place(chip, 3, occupied) is None
    assert sorted(placer.place(chip, 2, occupied)) == [23, 24]


@pytest.mark.parametrize("name", sorted(PLACERS))
def test_bad_requests_raise_on_a_memoised_state(chip, name):
    placer = PLACERS[name][0]()
    last = chip.n_cores - 1
    placer.place(chip, 2, {last})
    placer.place(chip, 0, {last})
    with pytest.raises(ConfigurationError, match="non-negative"):
        placer.place(chip, -1, {last})
    # -1 would alias the last core in a mask; it must not hit {last}'s entry.
    with pytest.raises(ConfigurationError, match="outside the chip"):
        placer.place(chip, 2, {-1})
    with pytest.raises(ConfigurationError, match="outside the chip"):
        placer.place(chip, 2, {chip.n_cores})


def test_biased_placement_is_not_memoised(chip):
    occupied = {2, 7, 12}
    unbiased = ThermalSpreadPlacer().place(chip, 6, occupied)
    size = len(_memo(chip, "thermal"))
    variation = VariationMap.generate(chip, sigma=0.5, seed=3)
    aware = VariationAwarePlacer(variation, leakage_weight=8.0)
    diagonal = chip.thermal.influence_matrix().diagonal()
    bias = 8.0 * variation.leakage_multipliers * diagonal
    biased = aware.place(chip, 6, occupied)
    assert biased == _thermal_spread(chip, 6, occupied, bias)
    assert biased != unbiased
    assert len(_memo(chip, "thermal")) == size
    assert ThermalSpreadPlacer().place(chip, 6, occupied) == unbiased


@pytest.mark.parametrize("name", sorted(PLACERS))
def test_memo_stays_within_its_bound(monkeypatch, chip, name):
    assert base.PLACEMENT_MEMO_SIZE >= 7000  # the runtime's 11 nm streams
    monkeypatch.setattr(base, "PLACEMENT_MEMO_SIZE", 5)
    placer_type, compute = PLACERS[name]
    placer = placer_type()
    requests = [(n, {k}) for k in range(12) for n in (1, 2)]
    for n, occupied in requests:
        placer.place(chip, n, occupied)
        assert len(_memo(chip, name)) <= 5
    # The oldest entries went first; every answer is still exact.
    assert len(_memo(chip, name)) == 5
    for n, occupied in requests:
        assert placer.place(chip, n, occupied) == compute(chip, n, occupied)
        assert len(_memo(chip, name)) <= 5


def test_memos_are_per_chip_and_per_placer(chip):
    other = Chip.grid_chip(NODE_16NM, 5, 5)
    ThermalSpreadPlacer().place(chip, 3, {4})
    NeighbourhoodSpreadPlacer().place(chip, 3, {4})
    NeighbourhoodSpreadPlacer().place(chip, 2, {4})
    assert len(_memo(chip, "thermal")) == 1
    assert len(_memo(chip, "neighbourhood")) == 2
    assert not hasattr(other, "_placement_memos")
