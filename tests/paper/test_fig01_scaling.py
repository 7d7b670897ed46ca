"""Figure 1 (table): ITRS scaling factors."""

from repro.experiments import fig01_scaling


def test_fig01_scaling_table():
    result = fig01_scaling.run()

    rows = {r[0]: r for r in result.rows()}
    # The exact Figure 1 factors.
    assert rows["16nm"][1:5] == (0.89, 1.35, 0.64, 0.53)
    assert rows["11nm"][1:5] == (0.81, 1.75, 0.39, 0.28)
    assert rows["8nm"][1:5] == (0.74, 2.30, 0.24, 0.15)
    # Derived chip parameters.
    assert rows["16nm"][6] == 100
    assert rows["11nm"][6] == 198
    assert rows["8nm"][6] == 361
