"""Figure 10: TSP-governed performance across technology nodes."""

from repro.experiments import fig10_tsp


def test_fig10_tsp():
    result = fig10_tsp.run()

    n16 = result.node("16nm")
    n11 = result.node("11nm")
    n8 = result.node("8nm")

    # Performance keeps rising with newer nodes despite more dark silicon.
    assert n16.average_gips < n11.average_gips < n8.average_gips
    assert n16.dark_share < n11.dark_share < n8.dark_share

    # Paper: ~60 % average increment from 11 nm to 8 nm.
    gain = n8.average_gips / n11.average_gips - 1.0
    assert 0.3 <= gain <= 1.2

    # Per-app TSP budgets per core shrink as the active count grows
    # across nodes (more, smaller cores).
    assert n16.tsp_per_core > n11.tsp_per_core > n8.tsp_per_core

    # Per-core power respects the TSP budget in every case.
    for node in result.nodes:
        for app in node.apps:
            assert app.per_core_power <= node.tsp_per_core + 1e-9

    # Total performance scale matches the paper's axis (hundreds of GIPS
    # at 16 nm up to ~1000+ GIPS at 8 nm).
    assert 100 <= n16.average_gips <= 500
    assert 500 <= n8.average_gips <= 1500
