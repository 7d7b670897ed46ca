"""Figure 11: transient boosting vs constant frequency (12x x264, 16 nm).

The paper simulates 100 s; the check uses a 10 s warm-started window,
which contains dozens of control oscillations and the same steady
behaviour, keeping the harness runtime reasonable.  Run
``darksilicon fig11`` (without --quick) for the full 100 s trace.
"""

import numpy as np

from repro.experiments import fig11_boosting_transient


def test_fig11_boosting_transient():
    result = fig11_boosting_transient.run(duration=10.0)

    boost, const = result.boosting, result.constant

    # Boosting's average performance is higher, but modestly so
    # (paper: 258.1 vs 245.3 GIPS, ~5 %; we accept up to ~25 %).
    assert boost.average_gips > const.average_gips
    assert boost.average_gips / const.average_gips < 1.25

    # Average GIPS in the paper's few-hundred range.
    assert 180 <= const.average_gips <= 380

    # Boosting oscillates around the 80 degC threshold...
    assert abs(boost.max_temperature - 80.0) <= 1.5
    assert np.ptp(boost.peak_temperatures) < 5.0
    # ... while the constant scheme sits a few degrees below it.
    assert const.max_temperature < 80.0
    assert const.max_temperature > 72.0

    # Observation 3: boosting pays with far higher peak power.
    assert boost.max_power > 1.3 * const.max_power
    # The 500 W electrical constraint is honoured.
    assert boost.max_power <= 505.0
