"""Figure 14: STC vs NTC at ISO performance (24 instances, 11 nm)."""

import pytest

from repro.experiments import fig14_ntc
from repro.power.vf_curve import Region


def test_fig14_ntc():
    result = fig14_ntc.run()

    apps = sorted({p.app for p in result.points})
    assert len(apps) == 7

    for app in apps:
        schemes = result.by_app(app)
        assert set(schemes) == {"ntc", "stc-1t", "stc-2t"}
        # ISO performance holds across feasible schemes.
        feasible = [p.gips for p in schemes.values() if p.feasible]
        assert max(feasible) == pytest.approx(min(feasible), rel=1e-9)
        # The NTC point is genuinely near-threshold.
        assert schemes["ntc"].region is Region.NTC

    # Observation 4 shapes: NTC beats single-thread STC for every
    # thread-scalable application...
    for app in apps:
        if app == "canneal":
            continue
        schemes = result.by_app(app)
        if schemes["stc-1t"].feasible:
            assert schemes["ntc"].energy_kj < schemes["stc-1t"].energy_kj, app

    # ...but loses for canneal, whose threads barely scale.
    canneal = result.by_app("canneal")
    assert canneal["ntc"].energy_kj > canneal["stc-1t"].energy_kj
    assert canneal["ntc"].energy_kj > canneal["stc-2t"].energy_kj

    # Energy scale: the paper plots single-digit kJ per workload.
    assert all(0.01 <= p.energy_kj <= 10.0 for p in result.points)
