"""Section 3's in-text 8 nm claims (no figure of their own).

Two statements the paper makes about the 361-core 8 nm chip without
plotting them:

* §3.2: repeating the Figure 6 experiment at 8 nm gives a *smaller*
  dark-silicon reduction than at 11 nm ("the power densities are very
  high ... on the other hand, at 8 nm more v/f levels are available");
* §3.3: the Figure 7 DVFS scenario still wins at 8 nm (the paper
  measures 1.5x on its calibration; on ours the 185 W TDP binds less
  hard at 8 nm, so the gain is positive but smaller — recorded in
  EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.experiments import fig06_temperature_constraint, fig07_dvfs


def _study():
    fig6 = fig06_temperature_constraint.run(node_names=("11nm", "8nm"))
    fig7 = fig07_dvfs.run(node_names=("8nm",))
    return fig6, fig7


def test_8nm_text_claims():
    fig6, fig7 = _study()

    by_node = {n.node: n for n in fig6.nodes}
    print("\n=== Section 3 in-text 8 nm claims ===")
    print(
        f"fig6 avg dark-silicon reduction: 11nm "
        f"{100 * by_node['11nm'].average_reduction:.1f} p.p., 8nm "
        f"{100 * by_node['8nm'].average_reduction:.1f} p.p."
    )
    (node8,) = fig7.nodes
    ratios = [a.gips_dvfs / a.gips_nominal for a in node8.apps]
    print(
        f"fig7 @8nm scenario2/scenario1: avg {np.mean(ratios):.2f}x, "
        f"max gain {100 * node8.max_gain:.0f}%"
    )

    # §3.2: the 8 nm reduction is smaller than the 11 nm one.
    assert by_node["8nm"].average_reduction < by_node["11nm"].average_reduction
    # Both remain positive (temperature never loses to TDP).
    assert by_node["8nm"].average_reduction > 0.0

    # §3.3: DVFS still never loses at 8 nm and wins on average.
    assert all(a.gain >= -1e-9 for a in node8.apps)
    assert np.mean(ratios) > 1.0
