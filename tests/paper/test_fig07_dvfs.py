"""Figure 7: DVFS per application characteristics vs nominal frequency."""

from repro.experiments import fig07_dvfs


def test_fig07_dvfs():
    result = fig07_dvfs.run()

    by_node = {n.node: n for n in result.nodes}

    for node in result.nodes:
        # DVFS never loses (the paper's "always improves the overall
        # system performance").
        for app in node.apps:
            assert app.gain >= -1e-9, (node.node, app.app)

    # Peak gains in the paper's bands: up to ~32 % (16 nm), ~38 % (11 nm).
    assert 0.20 <= by_node["16nm"].max_gain <= 0.60
    assert 0.20 <= by_node["11nm"].max_gain <= 0.60

    # The TLP/ILP story: the biggest gainer trades frequency for width —
    # it runs *below* the nominal maximum with more active cores than
    # Scenario 1 gave it.
    from repro.experiments.common import get_chip

    for node in result.nodes:
        best = max(node.apps, key=lambda a: a.gain)
        assert best.frequency_dvfs < get_chip(node.node).node.f_max
        assert best.active_dvfs > best.active_nominal
