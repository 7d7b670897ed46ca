"""TSP safe-frequency selection (the Figure 10 building block)."""

import pytest

from repro.apps.parsec import PARSEC
from repro.core.tsp import ThermalSafePower
from repro.errors import InfeasibleError
from repro.units import GIGA


@pytest.fixture(scope="module")
def tsp16(chip16):
    return ThermalSafePower(chip16)


class TestSafeFrequency:
    def test_respects_budget(self, chip16, tsp16):
        app = PARSEC["x264"]
        m = 80
        f = tsp16.safe_frequency(app, m)
        budget = tsp16.worst_case(m)
        assert app.core_power(chip16.node, 8, f, temperature=80.0) <= budget

    def test_is_maximal_on_ladder(self, chip16, tsp16):
        app = PARSEC["x264"]
        m = 80
        f = tsp16.safe_frequency(app, m)
        budget = tsp16.worst_case(m)
        higher = [x for x in chip16.node.frequency_ladder() if x > f]
        if higher:
            assert (
                app.core_power(chip16.node, 8, higher[0], temperature=80.0)
                > budget
            )

    def test_fewer_active_cores_allow_higher_frequency(self, tsp16):
        app = PARSEC["swaptions"]
        f40 = tsp16.safe_frequency(app, 40)
        f96 = tsp16.safe_frequency(app, 96)
        assert f40 >= f96

    def test_hungry_app_gets_lower_frequency(self, tsp16):
        m = 80
        f_hungry = tsp16.safe_frequency(PARSEC["swaptions"], m)
        f_light = tsp16.safe_frequency(PARSEC["canneal"], m)
        assert f_hungry <= f_light

    def test_custom_ladder(self, tsp16):
        f = tsp16.safe_frequency(
            PARSEC["canneal"], 40, frequencies=[1.0 * GIGA, 2.0 * GIGA]
        )
        assert f in (1.0 * GIGA, 2.0 * GIGA)

    def test_infeasible_raises(self, tsp16):
        # Swaptions at 4.4 GHz draws ~6 W/core, far above TSP(100) ~2 W.
        with pytest.raises(InfeasibleError, match="no DVFS level"):
            tsp16.safe_frequency(
                PARSEC["swaptions"], 100, frequencies=[4.4 * GIGA]
            )


class TestSafeFrequencyTable:
    """Safe frequencies across active-core counts, one query per count."""

    def test_monotone_non_increasing(self, tsp16):
        freqs = [tsp16.safe_frequency(PARSEC["x264"], m) for m in (24, 48, 72, 96)]
        assert freqs == sorted(freqs, reverse=True)
