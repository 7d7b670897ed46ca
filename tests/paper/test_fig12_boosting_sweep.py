"""Figure 12: performance & power vs active cores (x264, 16 nm)."""

from repro.experiments import fig12_boosting_sweep


def test_fig12_boosting_sweep():
    result = fig12_boosting_sweep.run(duration=2.0)

    points = result.points
    assert len(points) >= 10  # 8..96 in steps of 8, plus more

    # Performance grows with active cores under both schemes.
    const_gips = [p.constant_gips for p in points]
    assert const_gips == sorted(const_gips)
    assert points[-1].boosting_gips > points[0].boosting_gips

    # Boosting is (weakly) ahead at every point...
    for p in points:
        assert p.boosting_gips >= p.constant_gips * 0.98, p.active_cores

    # ...but with far higher peak power at scale (the paper's right-hand
    # panel: boosting's power curve diverges upward).
    assert points[-1].boosting_peak_power > 1.3 * points[-1].constant_power

    # The constant scheme's power saturates near the thermal capacity;
    # frequencies fall back as cores are added.
    freqs = [p.constant_frequency for p in points]
    assert freqs[-1] < freqs[0]
    assert points[-1].constant_power <= 230.0
