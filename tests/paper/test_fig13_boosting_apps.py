"""Figure 13: boosting vs constant per application at 11 nm."""

from repro.experiments import fig13_boosting_apps
from repro.power.vf_curve import Region
from repro.units import GIGA


def test_fig13_boosting_apps():
    result = fig13_boosting_apps.run(duration=2.0)

    # Every case: boosting's average performance is at least the
    # constant scheme's, at higher peak power.
    for case in result.cases:
        assert case.boosting_gips >= case.constant_gips * 0.98, (
            case.app,
            case.n_instances,
        )

    # 24-instance cases force lower safe frequencies than 12-instance
    # ones for the same app (more active cores -> less per-core budget).
    by_app = {}
    for case in result.cases:
        by_app.setdefault(case.app, {})[case.n_instances] = case
    for app, cases in by_app.items():
        assert cases[24].constant_frequency <= cases[12].constant_frequency, app

    # The paper's observation: the minimum utilised operating point
    # across all cases stays in the STC region (0.92 V / 3.0 GHz in the
    # paper's calibration), never NTC.
    assert all(c.region is not Region.NTC for c in result.cases)
    assert result.min_frequency >= 1.6 * GIGA
