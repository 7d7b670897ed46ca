"""Figure 9: DsRem vs TDPmap."""

from repro.experiments import fig09_dsrem


def test_fig09_dsrem():
    result = fig09_dsrem.run()

    # DsRem beats TDPmap on every workload.
    for entry in result.entries:
        assert entry.speedup > 1.0, entry.workload
        # And never violates the thermal threshold.
        assert entry.dsrem_peak <= 80.0 + 1e-6, entry.workload

    # Paper headline: ~2x average speed-up.
    assert 1.5 <= result.average_speedup <= 3.0

    # DsRem lights up silicon TDPmap leaves dark.
    for entry in result.entries:
        assert entry.dsrem_dark <= entry.tdpmap_dark + 1e-9, entry.workload
