"""Figure 8: dark-silicon patterning thermal profiles."""

import numpy as np
import pytest

from repro.experiments import fig08_patterning


def test_fig08_patterning():
    result = fig08_patterning.run()

    safe = result.contiguous_safe
    forced = result.contiguous_forced
    patterned = result.patterned

    # The pattern switches on more cores than the safe contiguous map
    # (the paper shows 52 -> 60).
    assert result.extra_active_cores > 0
    assert patterned.active_cores > safe.active_cores

    # Same workload, two placements: contiguous violates T_DTM, the
    # pattern does not — at identical total power.
    assert forced.active_cores == patterned.active_cores
    assert forced.total_power == pytest.approx(patterned.total_power)
    assert forced.exceeds_t_dtm
    assert not patterned.exceeds_t_dtm
    assert forced.peak_temperature > patterned.peak_temperature

    # The patterned map runs more total power than the safe contiguous
    # one (the paper shows 196 W -> 226 W).
    assert patterned.total_power > safe.total_power

    # Thermal maps: the contiguous map concentrates its hot spot (larger
    # spatial temperature spread than the pattern).
    assert np.ptp(forced.thermal_map) > np.ptp(patterned.thermal_map)
