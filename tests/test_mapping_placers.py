"""Placement policies (contiguous + dark-silicon patterning)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mapping.base import Placer
from repro.mapping.contiguous import ContiguousPlacer
from repro.mapping.patterns import (
    CheckerboardPlacer,
    NeighbourhoodSpreadPlacer,
    ThermalSpreadPlacer,
)
from repro.variation.map import VariationMap
from repro.variation.placer import VariationAwarePlacer

ALL_PLACERS = [
    ContiguousPlacer(),
    CheckerboardPlacer(),
    NeighbourhoodSpreadPlacer(),
    ThermalSpreadPlacer(),
]


class TestContract:
    """Properties every placer must satisfy."""

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_returns_requested_count(self, small_chip, placer):
        cores = placer.place(small_chip, 5, occupied=set())
        assert len(cores) == 5

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_no_duplicates(self, small_chip, placer):
        cores = placer.place(small_chip, 8, occupied=set())
        assert len(set(cores)) == 8

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_avoids_occupied(self, small_chip, placer):
        occupied = {0, 1, 2, 3, 4, 5}
        cores = placer.place(small_chip, 6, occupied=occupied)
        assert not occupied.intersection(cores)

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_none_when_capacity_exhausted(self, small_chip, placer):
        assert placer.place(small_chip, 5, occupied=set(range(13))) is None

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    def test_exact_fit(self, small_chip, placer):
        cores = placer.place(small_chip, 16, occupied=set())
        assert sorted(cores) == list(range(16))

    @pytest.mark.parametrize("placer", ALL_PLACERS, ids=lambda p: type(p).__name__)
    @given(occupied=st.sets(st.integers(min_value=0, max_value=15), max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_valid_indices_any_occupancy(self, small_chip, placer, occupied):
        n = min(3, 16 - len(occupied))
        if n == 0:
            return
        cores = placer.place(small_chip, n, occupied=occupied)
        assert cores is not None
        assert all(0 <= c < 16 for c in cores)
        assert not occupied.intersection(cores)


#: Every placer, built for a given chip (the variation map must match it).
PLACER_FACTORIES = {
    "contiguous": lambda chip: ContiguousPlacer(),
    "checkerboard": lambda chip: CheckerboardPlacer(),
    "neighbourhood": lambda chip: NeighbourhoodSpreadPlacer(),
    "thermal": lambda chip: ThermalSpreadPlacer(),
    "variation": lambda chip: VariationAwarePlacer(VariationMap.generate(chip)),
}


class TestBadRequests:
    """Every placer rejects a request that does not fit the chip."""

    @pytest.mark.parametrize("name", sorted(PLACER_FACTORIES))
    def test_negative_count_rejected(self, chip16, name):
        placer = PLACER_FACTORIES[name](chip16)
        with pytest.raises(ConfigurationError, match="n_cores"):
            placer.place(chip16, -2, set())

    @pytest.mark.parametrize("name", sorted(PLACER_FACTORIES))
    @pytest.mark.parametrize("bad", [-1, 100, 500])
    def test_occupied_index_off_the_chip_rejected(self, chip16, name, bad):
        placer = PLACER_FACTORIES[name](chip16)
        with pytest.raises(ConfigurationError, match=str(bad)):
            placer.place(chip16, 2, {0, bad})

    @pytest.mark.parametrize("name", sorted(PLACER_FACTORIES))
    def test_zero_cores_is_an_empty_placement(self, chip16, name):
        placer = PLACER_FACTORIES[name](chip16)
        assert list(placer.place(chip16, 0, {3, 99})) == []


class TestContiguous:
    def test_row_major_first_fit(self, small_chip):
        placer = ContiguousPlacer()
        assert list(placer.place(small_chip, 4, set())) == [0, 1, 2, 3]

    def test_skips_occupied_holes(self, small_chip):
        placer = ContiguousPlacer()
        assert list(placer.place(small_chip, 3, {0, 2})) == [1, 3, 4]


class TestCheckerboard:
    def test_prefers_even_parity(self, small_chip):
        placer = CheckerboardPlacer()
        cores = placer.place(small_chip, 8, set())
        coords = [small_chip.grid_coordinates(c) for c in cores]
        assert all((r + c) % 2 == 0 for r, c in coords)

    def test_odd_parity_option(self, small_chip):
        placer = CheckerboardPlacer(parity=1)
        cores = placer.place(small_chip, 8, set())
        coords = [small_chip.grid_coordinates(c) for c in cores]
        assert all((r + c) % 2 == 1 for r, c in coords)

    def test_overflows_into_other_parity(self, small_chip):
        placer = CheckerboardPlacer()
        cores = placer.place(small_chip, 12, set())
        assert len(cores) == 12

    def test_invalid_parity_rejected(self):
        with pytest.raises(ConfigurationError, match="parity"):
            CheckerboardPlacer(parity=2)


class TestNeighbourhoodSpread:
    def test_first_choice_is_corner(self, small_chip):
        placer = NeighbourhoodSpreadPlacer()
        cores = placer.place(small_chip, 1, set())
        assert cores[0] == 0  # fewest neighbours, lowest index

    def test_second_choice_not_adjacent_to_first(self, small_chip):
        placer = NeighbourhoodSpreadPlacer()
        cores = placer.place(small_chip, 2, set())
        r0, c0 = small_chip.grid_coordinates(cores[0])
        r1, c1 = small_chip.grid_coordinates(cores[1])
        assert abs(r0 - r1) + abs(c0 - c1) > 1


class TestThermalSpread:
    def test_spreads_produce_cooler_chip_than_contiguous(self, small_chip):
        import numpy as np

        n = 8
        per_core = 3.0
        for placer, expect_cooler in ((ContiguousPlacer(), False), (ThermalSpreadPlacer(), True)):
            cores = placer.place(small_chip, n, set())
            powers = np.zeros(16)
            powers[list(cores)] = per_core
            peak = small_chip.solver.peak_temperature(powers)
            if expect_cooler:
                assert peak < contiguous_peak
            else:
                contiguous_peak = peak


class TestFreeCores:
    def test_helper(self, small_chip):
        assert Placer.free_cores(small_chip, {0, 15}) == list(range(1, 15))
