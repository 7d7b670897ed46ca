"""Figure 6: TDP vs temperature as the dark-silicon constraint."""

from repro.experiments import fig06_temperature_constraint


def test_fig06_temperature_constraint():
    result = fig06_temperature_constraint.run()

    for node in result.nodes:
        # Temperature as the constraint never yields *more* dark silicon.
        for app, (dark_tdp, dark_temp, peak) in node.per_app.items():
            assert dark_temp <= dark_tdp + 1e-9, (node.node, app)
            assert peak <= 80.0 + 1e-6, (node.node, app)
        # And reduces it on average (paper reports 32 %/40 %; with the
        # paper's own package the physically achievable average is a few
        # percentage points — see EXPERIMENTS.md).
        assert node.average_reduction > 0.0, node.node

    # Per-app reductions reach at least ~8 p.p. somewhere.
    best = max(
        d_tdp - d_temp
        for node in result.nodes
        for d_tdp, d_temp, _ in node.per_app.values()
    )
    assert best >= 0.05
