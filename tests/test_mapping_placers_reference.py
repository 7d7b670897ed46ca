"""Vectorized thermal-spread greedy against the scalar loop it replaced.

``reference_place`` below is the original formulation: every candidate's
score is a generator sum ``sum(influence[c, k] for k in taken)`` over
the taken cores, re-evaluated for every free core at every pick.  The
production placers keep one incremental score vector instead; both must
pick the same cores, bit for bit.

Floating-point sums depend on their order, and near-ties between
mirror-image cores are common, so the reference walks ``taken`` in the
order the production code adds columns: ``sorted(occupied)``, then the
picks in pick order.  The original walked a hash set, whose order
depends on how the caller built it, so equal occupied sets could be
placed differently (see ``test_placement_depends_only_on_occupied_cores``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import Chip
from repro.mapping.patterns import ThermalSpreadPlacer
from repro.tech.library import NODE_16NM
from repro.variation.map import VariationMap
from repro.variation.placer import VariationAwarePlacer


def reference_place(chip, n_cores, occupied, leakage_weight=None, mults=None):
    """The scalar greedy; ``leakage_weight`` adds the variation-aware term."""
    free = [i for i in range(chip.n_cores) if i not in occupied]
    if len(free) < n_cores:
        return None
    influence = chip.thermal.influence_matrix()
    taken = sorted(occupied)
    chosen = []
    candidates = set(free)
    for _ in range(n_cores):
        if leakage_weight is None:
            def key(c):
                return sum(influence[c, k] for k in taken) + influence[c, c]
        else:
            def key(c):
                return (
                    sum(influence[c, k] for k in taken)
                    + influence[c, c]
                    + leakage_weight * mults[c] * influence[c, c]
                )
        best = min(sorted(candidates), key=key)
        chosen.append(best)
        candidates.remove(best)
        taken.append(best)
    return chosen


@pytest.fixture(scope="module")
def stacked_chip() -> Chip:
    """A 2-layer 5x5 stack: the greedy sees vertical coupling, which no
    planar grid has."""
    return Chip.stacked_grid(NODE_16NM, 5, 5, 2)


@pytest.fixture(scope="module")
def varied_die(chip16) -> VariationMap:
    return VariationMap.generate(chip16, sigma=0.5, seed=2015)


def _mirror_orbit(chip, core):
    """``core`` and its images under the grid's two mirror axes (and the
    diagonal on a square grid), on the same layer."""
    rows, cols = chip.grid
    layer, cell = divmod(core, rows * cols)
    r, q = divmod(cell, cols)
    images = {(r, q), (rows - 1 - r, q), (r, cols - 1 - q), (rows - 1 - r, cols - 1 - q)}
    if rows == cols:
        images |= {(b, a) for a, b in images}
    return {layer * rows * cols + a * cols + b for a, b in images}


@st.composite
def requests(draw, chip):
    """An occupied set plus a run of instance sizes placed one after another.

    Half the occupied sets are unions of mirror orbits: on a symmetric
    floorplan they leave mirror-image cores nearly tied, where the
    order of the floating-point sums decides the pick.
    """
    n = chip.n_cores
    if draw(st.booleans()):
        occupied = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    else:
        seeds = draw(st.lists(st.integers(0, n - 1), max_size=6))
        occupied = set().union(*(_mirror_orbit(chip, c) for c in seeds))
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    return occupied, sizes


def _assert_matches(chip, placer, request, **reference_kwargs):
    occupied, sizes = request
    occupied = set(occupied)
    for size in sizes:
        expected = reference_place(chip, size, occupied, **reference_kwargs)
        actual = placer.place(chip, size, occupied)
        assert (None if actual is None else list(actual)) == expected
        if expected is None:
            return
        # Later instances land next to earlier ones, as in DsRem.
        occupied |= set(expected)


@pytest.mark.parametrize("chip_name", ["chip16", "chip11", "stacked_chip"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_thermal_spread_matches_scalar_reference(request, chip_name, data):
    chip = request.getfixturevalue(chip_name)
    _assert_matches(chip, ThermalSpreadPlacer(), data.draw(requests(chip)))


@pytest.mark.parametrize("leakage_weight", [0.0, 2.0])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_variation_aware_matches_scalar_reference(
    chip16, varied_die, leakage_weight, data
):
    placer = VariationAwarePlacer(varied_die, leakage_weight=leakage_weight)
    _assert_matches(
        chip16,
        placer,
        data.draw(requests(chip16)),
        leakage_weight=leakage_weight,
        mults=varied_die.leakage_multipliers,
    )


def test_placement_depends_only_on_occupied_cores(chip16):
    """Regression: the generator-sum loop summed in hash-set order, so
    these two equal sets, built in different insertion orders, were
    placed on different cores."""
    ascending = [1, 8, 10, 19, 22, 27, 72, 77, 80, 89, 91, 98]
    shuffled = [91, 10, 98, 77, 8, 19, 72, 1, 80, 27, 22, 89]
    placements = []
    for order in (ascending, shuffled):
        occupied: set[int] = set()
        for core in order:
            occupied.add(core)
        placements.append(ThermalSpreadPlacer().place(chip16, 5, occupied))
    assert placements[0] == placements[1]
    assert placements[0] == reference_place(chip16, 5, set(ascending))
