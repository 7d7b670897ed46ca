"""Figure 2: the Eq. (2) frequency/voltage design space."""

from repro.experiments import fig02_vf_curve


def test_fig02_vf_curve():
    result = fig02_vf_curve.run()

    assert result.k_ghz_v == 3.7
    assert result.vth == 0.178

    samples = result.samples
    # Frequency is zero at Vth and monotone increasing.
    assert samples[0][1] == 0.0
    freqs = [f for _, f, _ in samples]
    assert freqs == sorted(freqs)
    # The curve tops out around 4.3 GHz at 1.5 V (Figure 2's upper-right).
    assert 4.0 <= freqs[-1] <= 4.6
    # All three regions appear, in NTC -> STC -> BOOST order.
    regions = [r for _, _, r in samples]
    assert regions[0] == "ntc"
    assert regions[-1] == "boost"
    assert "stc" in regions
    assert sorted(set(regions), key=regions.index) == ["ntc", "stc", "boost"]
