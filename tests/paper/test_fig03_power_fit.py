"""Figure 3: Eq. (1) fit to x264 power samples at 22 nm."""

from repro.experiments import fig03_power_fit


def test_fig03_power_fit():
    result = fig03_power_fit.run()

    # Paper anchor: ~18 W at 4 GHz for the single-threaded encoder.
    assert 15.0 <= result.power_at_4ghz <= 22.0
    # The fit tracks the noisy samples closely.
    assert result.rms_error < 0.05 * result.power_at_4ghz
    # Recovered coefficients are physical and near the catalogue values.
    assert 1.5 <= result.ceff_nf <= 3.0
    assert result.pind_w >= 0.0
    assert result.i0_a >= 0.0
    # Power grows monotonically with frequency (cubic dynamic term).
    fitted = [row[2] for row in result.rows()]
    assert fitted == sorted(fitted)
