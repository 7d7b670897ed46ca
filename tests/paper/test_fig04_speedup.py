"""Figure 4: speed-up vs parallel threads at 2 GHz."""

from repro.experiments import fig04_speedup


def test_fig04_speedup():
    result = fig04_speedup.run()

    curves = result.curves
    idx64 = result.thread_counts.index(64)
    # Paper values at 64 threads: x264 ~3x, bodytrack ~2.4x, canneal ~1.7x.
    assert abs(curves["x264"][idx64] - 3.0) < 0.3
    assert abs(curves["bodytrack"][idx64] - 2.4) < 0.3
    assert abs(curves["canneal"][idx64] - 1.7) < 0.3
    # Ordering at every plotted thread count >= 16 (the Figure 4 x-range).
    for i, n in enumerate(result.thread_counts):
        if n >= 16:
            assert curves["x264"][i] > curves["bodytrack"][i] > curves["canneal"][i]
    # The parallelism wall: speed-up saturates (64 below the peak).
    assert curves["x264"][idx64] < max(curves["x264"])
