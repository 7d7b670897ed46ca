"""Figure 5: dark silicon under the optimistic/pessimistic TDP."""

from repro.experiments import fig05_tdp_dark_silicon


def test_fig05_tdp_dark_silicon():
    result = fig05_tdp_dark_silicon.run()

    opt, pess = result.tdp_optimistic, result.tdp_pessimistic

    # Paper: up to ~37 % dark at 220 W, up to ~46 % at 185 W.
    assert 0.30 <= result.max_dark_fraction(opt) <= 0.50
    assert 0.40 <= result.max_dark_fraction(pess) <= 0.60
    assert result.max_dark_fraction(pess) > result.max_dark_fraction(opt)

    # Observation 1: the optimistic TDP produces thermal violations for
    # the power-hungry applications, the pessimistic one never does.
    opt_peaks = result.peak_temperatures(opt)
    pess_peaks = result.peak_temperatures(pess)
    assert sum(1 for t in opt_peaks.values() if t > 80.0) >= 2
    assert all(t <= 80.5 for t in pess_peaks.values())

    # Observation 2: within each sweep, dark silicon never increases
    # when the v/f level is lowered.
    for tdp in (opt, pess):
        for app, points in result.sweeps[tdp].items():
            darks = [p.dark_fraction for p in points]
            assert darks == sorted(darks), (tdp, app)

    # The hungriest application (swaptions) shows the deepest dark share.
    deepest = max(
        result.sweeps[pess], key=lambda a: result.sweeps[pess][a][-1].dark_fraction
    )
    assert deepest == "swaptions"
